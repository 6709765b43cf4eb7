(* Benchmark harness: regenerates every table and figure of the paper
   (Table I bibliographic + empirical companion, Figs. 1-4) and the
   ablation tables called out in DESIGN.md, then times the artifact
   generators with bechamel (one Test.make per artifact).

     dune exec bench/main.exe            everything
     dune exec bench/main.exe -- quick   skip the slow exact mappers
     dune exec bench/main.exe -- t1b-only [journal=FILE] [resume]
                                         just the empirical sweep, with
                                         optional crash-safe checkpointing
     dune exec bench/main.exe -- repair-only     just the repair-ladder walk
     dune exec bench/main.exe -- sat-sweep-only  just the incremental-vs-cold
                                                 SAT II-sweep comparison *)

module Table = Ocgra_util.Table
module Kernels = Ocgra_workloads.Kernels
module Json = Ocgra_obs.Json

let args = List.tl (Array.to_list Sys.argv)
let quick = List.mem "quick" args
let t1b_only = List.mem "t1b-only" args
let repair_only = List.mem "repair-only" args
let sat_sweep_only = List.mem "sat-sweep-only" args
let serve_only = List.mem "serve-only" args
let bench_resume = List.mem "resume" args

let bench_journal =
  List.find_map
    (fun a ->
      if String.length a > 8 && String.sub a 0 8 = "journal=" then
        Some (String.sub a 8 (String.length a - 8))
      else None)
    args

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Every BENCH_*.json snapshot opens with the same stamp: a schema
   version plus the bench name, which is what lets `ocgra report`
   refuse to compare snapshots of different shape or vintage.  Bump
   the version whenever a writer changes shape. *)
let bench_schema = 1

let int = Json.of_int
let int_opt = function Some n -> int n | None -> Json.Null

(* rounded to [digits] decimals, so snapshot numbers stay short *)
let fixed digits x =
  let scale = 10.0 ** float_of_int digits in
  Json.Num (Float.round (x *. scale) /. scale)

let fixed_opt digits = function Some x -> fixed digits x | None -> Json.Null

let write_snapshot path name fields =
  Ocgra_obs.Export.write_file path
    (Json.write (Json.Obj (("schema", int bench_schema) :: ("bench", Json.Str name) :: fields))
    ^ "\n")

(* ------------------------------------------------------------------ *)
(* T1a: Table I, bibliographic (generated from the corpus)            *)
(* ------------------------------------------------------------------ *)

let t1a () =
  section "Table I (bibliographic): binding and scheduling techniques, from the corpus";
  print_string (Ocgra_biblio.Table1.render ())

(* ------------------------------------------------------------------ *)
(* T1b: Table I, empirical companion                                   *)
(* ------------------------------------------------------------------ *)

let slow_mappers = [ "ilp-temporal"; "cp"; "sat"; "ilp-spatial" ]

(* The kernels x mappers sweep is embarrassingly parallel: every cell
   is an independent [Mapper.run] with its own seed-derived RNG, on
   read-only shared problem inputs.  Cells are flattened into one task
   array and sharded across a domain pool (OCGRA_JOBS or all cores);
   results land at their cell index, so the printed table is identical
   to the sequential one.  Each cell's time is measured on the
   monotonic clock *inside* its task — never [Sys.time], which is CPU
   time and sums across workers — and a mapper's "time" column is the
   sum of its cells' mapping times (comparable across mappers
   regardless of interleaving). *)
(* Machine-readable companion of the t1b sweep: one record per
   (mapper, kernel) cell with the II, mapping time and the engine
   counters that cell's private metrics sink accumulated. *)
let counters_to_json cs = Json.Obj (List.map (fun (name, v) -> (name, int v)) cs)

let write_bench_json path records =
  write_snapshot path "table1-empirical"
    [
      ( "cells",
        Json.Arr
          (List.map
             (fun (mapper, kernel, ii, proven, dt, counters) ->
               Json.Obj
                 [
                   ("mapper", Json.Str mapper);
                   ("kernel", Json.Str kernel);
                   ("ii", int_opt ii);
                   ("proven_optimal", Json.Bool proven);
                   ("map_time_s", fixed 6 dt);
                   ("counters", counters_to_json counters);
                 ])
             records) );
    ]

(* ----- crash-safe sweep checkpointing (same discipline as
   Reliability.run_campaign): one JSON line per finished cell,
   appended from whichever worker domain ran it, fsync'd in batches;
   resume replays the journal, skips finished cells and recomputes
   only the rest.  Cell identity is "mapper/kernel", so a resumed
   sweep must be configured identically — the header line pins the
   quick flag. ----- *)

let bench_header () =
  Json.write
    (Json.Obj [ ("bench", Json.Obj [ ("suite", Json.Str "t1b"); ("quick", Json.Bool quick) ]) ])

let cell_line name (_, dt, ii, proven, counters) =
  Json.write
    (Json.Obj
       [
         ("cell", Json.Str name);
         ("ii", int_opt ii);
         ("proven", Json.Bool proven);
         ("time", Json.Num dt);
         ("counters", counters_to_json counters);
       ])

let shown_of ~ii ~proven =
  match ii with
  | Some ii -> Printf.sprintf "II=%d%s" ii (if proven then "*" else "")
  | None -> "-"

(* a line that does not decode is the torn tail of a killed sweep:
   that cell reruns *)
let cell_of_line line =
  let ( let* ) = Result.bind in
  let ii = function Json.Null -> Ok None | v -> Result.map Option.some (Json.int v) in
  let counters = function
    | Json.Obj kvs ->
        List.fold_right
          (fun (name, v) acc ->
            let* acc = acc in
            let* v = Json.int v in
            Ok ((name, v) :: acc))
          kvs (Ok [])
    | _ -> Error "expected an object"
  in
  Result.to_option
    (let* v = Json.parse line in
     let* name = Json.field "cell" Json.string v in
     let* ii = Json.field "ii" ii v in
     let* proven = Json.field "proven" Json.bool v in
     let* dt = Json.field "time" Json.float v in
     let* counters = Json.field "counters" counters v in
     Ok (name, (shown_of ~ii ~proven, dt, ii, proven, counters)))

let t1b () =
  section "Table I (empirical): one implemented representative per cell, common suite";
  let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 () in
  let cgra_spatial =
    Ocgra_arch.Cgra.uniform ~topology:Ocgra_arch.Topology.Diagonal ~rows:4 ~cols:4 ()
  in
  let suite = Kernels.small_suite () in
  let nk = List.length suite in
  let headers =
    Array.of_list
      (("mapper" :: "cell" :: List.map (fun (k : Kernels.t) -> k.name) suite) @ [ "time" ])
  in
  let mappers =
    List.filter
      (fun (m : Ocgra_core.Mapper.t) -> not (quick && List.mem m.name slow_mappers))
      Ocgra_mappers.Registry.all
  in
  let cell (mapper : Ocgra_core.Mapper.t) (k : Kernels.t) () =
    let t0 = Ocgra_core.Deadline.now () in
    let p =
      if mapper.scope = Ocgra_core.Taxonomy.Spatial_mapping then
        Ocgra_core.Problem.spatial ~init:k.init ~dfg:k.dfg ~cgra:cgra_spatial ()
      else Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:12 ()
    in
    (* a private metrics sink per cell: counter deltas attribute to
       exactly this (mapper, kernel) pair even across worker domains *)
    let obs = Ocgra_obs.Ctx.v ~trace:Ocgra_obs.Trace.off ~metrics:(Ocgra_obs.Metrics.create ()) () in
    let o = Ocgra_core.Mapper.run mapper ~seed:7 ~obs p in
    let dt = Ocgra_core.Deadline.now () -. t0 in
    let ii = Option.map (fun m -> m.Ocgra_core.Mapping.ii) o.mapping in
    ( shown_of ~ii ~proven:o.proven_optimal,
      dt,
      ii,
      o.proven_optimal,
      Ocgra_obs.Metrics.dump (Ocgra_obs.Ctx.metrics obs) )
  in
  let pairs =
    Array.of_list (List.concat_map (fun m -> List.map (fun k -> (m, k)) suite) mappers)
  in
  let n = Array.length pairs in
  let name_of i =
    let (m : Ocgra_core.Mapper.t), (k : Kernels.t) = pairs.(i) in
    m.name ^ "/" ^ k.name
  in
  (* journal replay: completed cells keyed by "mapper/kernel" *)
  let completed = Hashtbl.create 64 in
  (match bench_journal with
  | Some path when bench_resume -> (
      match Ocgra_par.Journal.read_lines path with
      | [] -> ()
      | header :: rest ->
          if header <> bench_header () then
            invalid_arg
              (Printf.sprintf "bench: journal %s was written by a differently-configured sweep"
                 path);
          List.iter
            (fun line ->
              match cell_of_line line with
              | Some (name, c) -> Hashtbl.replace completed name c
              | None -> ())
            rest)
  | _ -> ());
  let resumed = Hashtbl.length completed in
  let journal =
    Option.map
      (fun path ->
        let fresh = resumed = 0 in
        let j = Ocgra_par.Journal.open_append ~fresh path in
        if fresh then Ocgra_par.Journal.append j (bench_header ());
        j)
      bench_journal
  in
  (* quarantined cells degrade to an ERR entry instead of killing the
     sweep; every other cell still prints *)
  let cells = Array.make n ("ERR", 0.0, None, false, []) in
  let pending =
    List.filter
      (fun i ->
        match Hashtbl.find_opt completed (name_of i) with
        | Some c ->
            cells.(i) <- c;
            false
        | None -> true)
      (List.init n Fun.id)
  in
  let tasks =
    Array.of_list
      (List.map
         (fun i ->
           let m, k = pairs.(i) in
           fun (_stop : unit -> bool) ->
             let r = cell m k () in
             (match journal with
             | Some j -> Ocgra_par.Journal.append j (cell_line (name_of i) r)
             | None -> ());
             (i, r))
         pending)
  in
  let summary = Ocgra_par.Supervise.run tasks in
  (match journal with Some j -> Ocgra_par.Journal.close j | None -> ());
  Array.iter
    (function Ocgra_par.Supervise.Ok (i, r) -> cells.(i) <- r | _ -> ())
    summary.outcomes;
  let records =
    List.concat
      (List.mapi
         (fun mi (mapper : Ocgra_core.Mapper.t) ->
           List.mapi
             (fun ki (k : Kernels.t) ->
               let _, dt, ii, proven, counters = cells.((mi * nk) + ki) in
               (mapper.name, k.name, ii, proven, dt, counters))
             suite)
         mappers)
  in
  write_bench_json "BENCH_PR6.json" records;
  let rows =
    List.mapi
      (fun mi (mapper : Ocgra_core.Mapper.t) ->
        let row = Array.sub cells (mi * nk) nk in
        let dt = Array.fold_left (fun acc (_, d, _, _, _) -> acc +. d) 0.0 row in
        let scope_tag =
          match mapper.scope with
          | Ocgra_core.Taxonomy.Spatial_mapping -> "S"
          | Ocgra_core.Taxonomy.Temporal_mapping -> "T"
          | Ocgra_core.Taxonomy.Binding_only -> "B"
          | Ocgra_core.Taxonomy.Scheduling_only -> "Sc"
        in
        let col =
          Ocgra_core.Taxonomy.column_to_string
            (Ocgra_core.Taxonomy.column_of_approach mapper.approach)
        in
        Array.of_list
          ((mapper.name :: Printf.sprintf "%s/%s" scope_tag col
            :: List.map (fun (shown, _, _, _, _) -> shown) (Array.to_list row))
          @ [ Printf.sprintf "%.1fs" dt ]))
      mappers
  in
  Table.print ~headers rows;
  print_endline "  *  = II proven optimal (success at the MII lower bound)";
  print_endline "  S(patial) rows run at II=1 on a diagonal-topology array; '-' = mapping failed";
  Printf.printf "  cells mapped on %d worker domain(s); time = summed per-cell mapping time\n"
    (Ocgra_par.Pool.default_workers ());
  if resumed > 0 then
    Printf.printf "  resumed: %d cell(s) replayed from the journal, %d recomputed\n" resumed
      (List.length pending);
  (match summary.quarantined with
  | [] -> ()
  | q -> Printf.printf "  quarantined: %d cell(s) kept failing and print as ERR\n" (List.length q));
  print_endline "  machine-readable sweep written to BENCH_PR6.json"

(* ------------------------------------------------------------------ *)
(* PR7: repair ladder vs cold remap under escalating faults            *)
(* ------------------------------------------------------------------ *)

(* One survivor walk per kernel: escalating seeded permanent faults,
   each step salvaged by the certified repair ladder *and* cold-solved
   from scratch on the same mask, so every step prices the incremental
   path against the full remap it replaces.  The machine-readable
   snapshot (BENCH_PR7.json) carries per-step rung/II/time records and
   two medians: over all surviving steps, and over the incremental
   rungs only (untouched excluded — those are free by construction). *)

let median_of floats =
  match List.sort compare floats with
  | [] -> None
  | sorted ->
      let n = List.length sorted in
      Some ((List.nth sorted ((n - 1) / 2) +. List.nth sorted (n / 2)) /. 2.0)

let write_repair_json path ~seed ~steps_per_kernel results =
  let step_records =
    List.concat_map
      (fun (kernel, rep) ->
        List.map
          (fun (s : Ocgra_sim.Reliability.survivor_step) -> (kernel, s))
          rep.Ocgra_sim.Reliability.steps)
      results
  in
  let ratios pred =
    List.filter_map
      (fun ((_, s) : string * Ocgra_sim.Reliability.survivor_step) ->
        match (s.rung, s.scratch_s) with
        | Some r, Some sc when pred r && s.repair_s > 0.0 -> Some (sc /. s.repair_s)
        | _ -> None)
      step_records
  in
  let med_all = median_of (ratios (fun _ -> true)) in
  let med_incr =
    median_of
      (ratios (function
        | Ocgra_core.Mapper.Route_only | Ocgra_core.Mapper.Local_replace -> true
        | _ -> false))
  in
  let certified =
    List.length (List.filter (fun (_, (s : Ocgra_sim.Reliability.survivor_step)) -> s.rung <> None) step_records)
  in
  write_snapshot path "repair-ladder"
    [
      ("seed", int seed);
      ("steps_per_kernel", int steps_per_kernel);
      ( "steps",
        Json.Arr
          (List.map
             (fun (kernel, (s : Ocgra_sim.Reliability.survivor_step)) ->
               Json.Obj
                 [
                   ("kernel", Json.Str kernel);
                   ("step", int s.step);
                   ( "rung",
                     match s.rung with
                     | Some r -> Json.Str (Ocgra_core.Mapper.rung_to_string r)
                     | None -> Json.Null );
                   ("ii", int_opt s.ii);
                   ("replayed", Json.Bool s.replayed);
                   ("repair_s", fixed 6 s.repair_s);
                   ("scratch_s", fixed_opt 6 s.scratch_s);
                   ( "speedup",
                     match (s.rung, s.scratch_s) with
                     | Some _, Some sc when s.repair_s > 0.0 -> fixed 2 (sc /. s.repair_s)
                     | _ -> Json.Null );
                 ])
             step_records) );
      ( "summary",
        Json.Obj
          [
            ("kernels", int (List.length results));
            ("steps", int (List.length step_records));
            ("certified", int certified);
            ("median_speedup_all", fixed_opt 2 med_all);
            ("median_speedup_incremental", fixed_opt 2 med_incr);
          ] );
    ];
  (med_all, med_incr)

let repair_bench () =
  section "Repair ladder: incremental salvage vs cold remap under escalating faults";
  let kernels =
    [
      Kernels.dot_product (); Kernels.saxpy (); Kernels.fir4 (); Kernels.sobel_row ();
      Kernels.absdiff ();
    ]
  in
  let chain = [ Ocgra_mappers.Registry.find "modulo-greedy" ] in
  let iters = 8 and steps = 10 and seed = 1 in
  let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 () in
  let results =
    List.filter_map
      (fun (k : Kernels.t) ->
        let p = Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:12 () in
        let o = Ocgra_core.Mapper.run (List.hd chain) ~seed:7 p in
        match o.mapping with
        | None -> None
        | Some m ->
            let mk_io () = Ocgra_sim.Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
            let reference = Kernels.eval_reference k ~iters in
            let expected =
              List.map
                (fun name -> (name, Ocgra_dfg.Eval.output_stream reference name))
                k.outputs
            in
            let rep =
              Ocgra_sim.Reliability.run_survivor ~workers:1 ~chain p m ~mk_io ~iters ~expected
                ~steps ~seed
            in
            Some (k.name, rep))
      kernels
  in
  let rows =
    List.map
      (fun (name, (rep : Ocgra_sim.Reliability.survivor_report)) ->
        [|
          name;
          string_of_int rep.survived;
          (match rep.certified_failure with Some k -> string_of_int k | None -> "-");
          (match (rep.ii_curve, List.rev rep.ii_curve) with
          | (_, ii0) :: _, (_, iin) :: _ -> Printf.sprintf "%d -> %d" ii0 iin
          | _ -> "-");
          (match rep.repair_vs_scratch with Some x -> Printf.sprintf "%.1fx" x | None -> "-");
        |])
      results
  in
  Table.print
    ~headers:[| "kernel"; "survived"; "failure at"; "II curve"; "repair vs scratch" |]
    rows;
  let med_all, med_incr = write_repair_json "BENCH_PR7.json" ~seed ~steps_per_kernel:steps results in
  Printf.printf "  median speedup, all surviving steps: %s\n"
    (match med_all with Some x -> Printf.sprintf "%.1fx" x | None -> "-");
  Printf.printf "  median speedup, incremental rungs (route-only/re-place): %s\n"
    (match med_incr with Some x -> Printf.sprintf "%.1fx" x | None -> "-");
  print_endline "  machine-readable walk written to BENCH_PR7.json"

(* ------------------------------------------------------------------ *)
(* PR8: incremental assumption-based II sweep vs cold-per-II           *)
(* ------------------------------------------------------------------ *)

(* Kernels x grids whose optimal II exceeds MII, so the sweep visits
   more than one candidate and the shared solver instance actually
   carries learnt clauses, activities and phases across candidates.
   Both modes must reach the same final II; the incremental sweep is
   expected to spend strictly fewer conflicts (conflict counts are
   deterministic; wall times vary with machine load). *)
let sat_sweep_cases =
  [ ("running-max", 2); ("absdiff", 2); ("mix-round", 2); ("matvec2", 3) ]

let sat_sweep_seed = 11
let sat_sweep_max_ii = 8

type sat_sweep_run = {
  ss_ii : int option;
  ss_attempts : int;
  ss_conflicts : int;
  ss_decisions : int;
  ss_propagations : int;
  ss_time_s : float;
}

let sat_sweep_run ~incremental (k : Kernels.t) grid =
  let cgra = Ocgra_arch.Cgra.uniform ~rows:grid ~cols:grid () in
  let p =
    Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:sat_sweep_max_ii ()
  in
  let obs = Ocgra_obs.Ctx.create () in
  let rng = Ocgra_util.Rng.create sat_sweep_seed in
  let t0 = Ocgra_core.Deadline.now () in
  let m, attempts, _, _ = Ocgra_mappers.Sat_temporal.map ~incremental ~obs p rng in
  let dt = Ocgra_core.Deadline.now () -. t0 in
  (match m with
  | Some m when Ocgra_core.Check.validate p m <> [] ->
      invalid_arg (Printf.sprintf "sat sweep: invalid mapping on %s" k.name)
  | _ -> ());
  let mt = Ocgra_obs.Ctx.metrics obs in
  let get = Ocgra_obs.Metrics.get mt in
  {
    ss_ii = Option.map (fun (m : Ocgra_core.Mapping.t) -> m.ii) m;
    ss_attempts = attempts;
    ss_conflicts = get "sat.conflicts";
    ss_decisions = get "sat.decisions";
    ss_propagations = get "sat.propagations";
    ss_time_s = dt;
  }

let sat_sweep_json_run r =
  Json.Obj
    [
      ("ii", int_opt r.ss_ii);
      ("attempts", int r.ss_attempts);
      ("conflicts", int r.ss_conflicts);
      ("decisions", int r.ss_decisions);
      ("propagations", int r.ss_propagations);
      ("time_s", fixed 6 r.ss_time_s);
    ]

let write_sat_sweep_json path rows (tc : sat_sweep_run) (ti : sat_sweep_run) =
  let verdicts cold inc =
    [
      ("conflicts_reduced", Json.Bool (inc.ss_conflicts < cold.ss_conflicts));
      ("time_reduced", Json.Bool (inc.ss_time_s < cold.ss_time_s));
    ]
  in
  write_snapshot path "sat-incremental-sweep"
    [
      ("seed", int sat_sweep_seed);
      ("max_ii", int sat_sweep_max_ii);
      ( "kernels",
        Json.Arr
          (List.map
             (fun (kernel, grid, mii, cold, inc) ->
               Json.Obj
                 ([
                    ("kernel", Json.Str kernel);
                    ("grid", Json.Str (Printf.sprintf "%dx%d" grid grid));
                    ("mii", int mii);
                    ("cold", sat_sweep_json_run cold);
                    ("incremental", sat_sweep_json_run inc);
                    ("same_ii", Json.Bool (cold.ss_ii = inc.ss_ii));
                  ]
                 @ verdicts cold inc))
             rows) );
      ( "totals",
        Json.Obj
          ([ ("cold", sat_sweep_json_run tc); ("incremental", sat_sweep_json_run ti) ]
          @ verdicts tc ti) );
    ]

let sat_sweep_bench () =
  section "Incremental SAT II sweep: one shared solver vs cold per candidate II";
  let rows =
    List.map
      (fun (name, grid) ->
        let k = Kernels.find name in
        let cgra = Ocgra_arch.Cgra.uniform ~rows:grid ~cols:grid () in
        let mii = Ocgra_core.Mii.mii k.dfg cgra in
        let cold = sat_sweep_run ~incremental:false k grid in
        let inc = sat_sweep_run ~incremental:true k grid in
        (name, grid, mii, cold, inc))
      sat_sweep_cases
  in
  let total runs =
    List.fold_left
      (fun acc r ->
        {
          acc with
          ss_conflicts = acc.ss_conflicts + r.ss_conflicts;
          ss_decisions = acc.ss_decisions + r.ss_decisions;
          ss_propagations = acc.ss_propagations + r.ss_propagations;
          ss_time_s = acc.ss_time_s +. r.ss_time_s;
          ss_attempts = acc.ss_attempts + r.ss_attempts;
        })
      { ss_ii = None; ss_attempts = 0; ss_conflicts = 0; ss_decisions = 0;
        ss_propagations = 0; ss_time_s = 0.0 }
      runs
  in
  let tc = total (List.map (fun (_, _, _, c, _) -> c) rows) in
  let ti = total (List.map (fun (_, _, _, _, i) -> i) rows) in
  Table.print
    ~headers:
      [| "kernel"; "grid"; "mii"; "II"; "sweeps"; "cold confl"; "incr confl"; "cold s"; "incr s" |]
    (List.map
       (fun (name, grid, mii, (c : sat_sweep_run), (i : sat_sweep_run)) ->
         [|
           name;
           Printf.sprintf "%dx%d" grid grid;
           string_of_int mii;
           (match i.ss_ii with Some ii -> string_of_int ii | None -> "-");
           string_of_int i.ss_attempts;
           string_of_int c.ss_conflicts;
           string_of_int i.ss_conflicts;
           Printf.sprintf "%.3f" c.ss_time_s;
           Printf.sprintf "%.3f" i.ss_time_s;
         |])
       rows);
  Printf.printf "  totals: conflicts %d -> %d, wall %.3fs -> %.3fs\n" tc.ss_conflicts
    ti.ss_conflicts tc.ss_time_s ti.ss_time_s;
  write_sat_sweep_json "BENCH_PR8.json" rows tc ti;
  print_endline "  machine-readable sweep written to BENCH_PR8.json"

(* ------------------------------------------------------------------ *)
(* F1: architecture-class comparison                                   *)
(* ------------------------------------------------------------------ *)

let f1 () =
  section "Fig. 1 (reproduction): architecture classes on the same kernels";
  let classes =
    [
      ("CPU-like (1 PE, temporal)", Ocgra_arch.Cgra.single_pe (), false);
      ("CGRA 4x4 (temporal)", Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 (), false);
      ( "FPGA-like 8x8 (spatial)",
        Ocgra_arch.Cgra.uniform ~topology:Ocgra_arch.Topology.Diagonal ~rows:8 ~cols:8 (),
        true );
    ]
  in
  let suite = Kernels.full_suite () in
  let iters = 16 in
  let rows =
    List.map
      (fun (label, cgra, spatial) ->
        let npe = Ocgra_arch.Cgra.pe_count cgra in
        let mapped = ref 0 and cycles = ref 0 and energy = ref 0.0 in
        List.iter
          (fun (k : Kernels.t) ->
            let p =
              if spatial then Ocgra_core.Problem.spatial ~init:k.init ~dfg:k.dfg ~cgra ()
              else Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:40 ()
            in
            let rng = Ocgra_util.Rng.create 23 in
            match Ocgra_mappers.Constructive.map ~restarts:12 p rng with
            | Some m, _, _ ->
                incr mapped;
                let io = Ocgra_sim.Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
                let result = Ocgra_sim.Machine.run p m io ~iters in
                cycles := !cycles + result.Ocgra_sim.Machine.stats.cycles;
                energy :=
                  !energy
                  +. Ocgra_sim.Energy.of_mapping_run k.dfg ~npe ~iters
                       result.Ocgra_sim.Machine.stats
            | None, _, _ -> ())
          suite;
        let flexibility = Printf.sprintf "%d/%d kernels" !mapped (List.length suite) in
        let performance =
          if !mapped = 0 then "-"
          else
            Printf.sprintf "%.3f iter/cycle"
              (float_of_int (!mapped * iters) /. float_of_int !cycles)
        in
        let efficiency =
          if !mapped = 0 then "-"
          else Printf.sprintf "%.4f iter/energy" (float_of_int (!mapped * iters) /. !energy)
        in
        [| label; flexibility; performance; efficiency |])
      classes
  in
  Table.print
    ~headers:[| "architecture"; "flexibility"; "performance"; "energy efficiency" |]
    rows;
  print_endline
    "  expected shape (Fig. 1): the CGRA sits between the sequential processor\n\
    \  (maps everything, lowest throughput) and the spatial fabric (fast where it\n\
    \  maps at all, maps the fewest kernels)"

(* ------------------------------------------------------------------ *)
(* F2: the CGRA anatomy and its configuration register                 *)
(* ------------------------------------------------------------------ *)

let f2 () =
  section "Fig. 2 (reproduction): a simple CGRA and one configuration register";
  let cgra = Ocgra_arch.Cgra.adres_like ~rows:4 ~cols:4 () in
  print_string (Ocgra_arch.Cgra.describe cgra);
  let k = Kernels.dot_product () in
  let p = Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra () in
  let rng = Ocgra_util.Rng.create 42 in
  match Ocgra_mappers.Constructive.map p rng with
  | Some m, _, _ ->
      let build = Ocgra_core.Contexts.of_mapping p m in
      print_string (Ocgra_core.Contexts.to_string p build);
      let words = Ocgra_core.Contexts.encode build in
      Printf.printf "context memory: %d contexts x %d PEs x 53-bit words; word[0][0] = 0x%Lx\n"
        (Array.length words)
        (Array.length words.(0))
        words.(0).(0)
  | None, _, _ -> print_endline "mapping failed"

(* ------------------------------------------------------------------ *)
(* F3: the compilation flow on the dot product                         *)
(* ------------------------------------------------------------------ *)

let f3 () =
  section "Fig. 3 (reproduction): compilation flow, dot product";
  let module P = Ocgra_dfg.Prog_ast in
  let program =
    [
      P.Assign ("sum", P.Int 0);
      P.For
        ( "i",
          P.Int 0,
          P.Var "size",
          [
            P.Assign
              ( "sum",
                P.Bin
                  ( Ocgra_dfg.Op.Add,
                    P.Var "sum",
                    P.Bin (Ocgra_dfg.Op.Mul, P.Read ("A", P.Var "i"), P.Read ("B", P.Var "i")) ) );
          ] );
      P.Emit ("sum", P.Var "sum");
    ]
  in
  let cdfg = Ocgra_dfg.Prog.to_cdfg program in
  print_string (Ocgra_dfg.Cdfg.to_string cdfg);
  let kernel = Kernels.dot_product () in
  let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 () in
  let p = Ocgra_core.Problem.temporal ~init:kernel.init ~dfg:kernel.dfg ~cgra () in
  let rng = Ocgra_util.Rng.create 42 in
  match Ocgra_mappers.Constructive.map p rng with
  | Some m, _, _ ->
      Printf.printf "\nmodulo schedule of the loop body (II = %d):\n" m.Ocgra_core.Mapping.ii;
      print_string (Ocgra_core.Mapping.to_grid m kernel.dfg cgra)
  | None, _, _ -> print_endline "mapping failed"

(* ------------------------------------------------------------------ *)
(* F4: the timeline                                                    *)
(* ------------------------------------------------------------------ *)

let f4 () =
  section "Fig. 4 (reproduction): two decades of CGRA mapping";
  print_string (Ocgra_biblio.Timeline.render ())

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ab_ii_vs_size () =
  section "Ablation: achieved II vs array size (scalability, Section IV.B)";
  let kernels = [ Kernels.fir4 (); Kernels.butterfly (); Kernels.sobel_row () ] in
  let sizes = [ (2, 2); (3, 3); (4, 4); (5, 5); (6, 6) ] in
  let rows =
    List.map
      (fun (k : Kernels.t) ->
        Array.of_list
          (k.name
          :: List.map
               (fun (r, c) ->
                 let cgra = Ocgra_arch.Cgra.uniform ~rows:r ~cols:c () in
                 let p = Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:24 () in
                 let rng = Ocgra_util.Rng.create 3 in
                 match Ocgra_mappers.Constructive.map ~restarts:12 p rng with
                 | Some m, _, _ ->
                     Printf.sprintf "II=%d (MII %d)" m.Ocgra_core.Mapping.ii
                       (Ocgra_core.Mii.mii k.dfg cgra)
                 | None, _, _ -> "-")
               sizes))
      kernels
  in
  let headers =
    Array.of_list ("kernel" :: List.map (fun (r, c) -> Printf.sprintf "%dx%d" r c) sizes)
  in
  Table.print ~headers rows

let ab_topology () =
  section "Ablation: interconnect topology (routing pressure)";
  let kernels = [ Kernels.fir4 (); Kernels.butterfly (); Kernels.absdiff () ] in
  let rows =
    List.map
      (fun (k : Kernels.t) ->
        Array.of_list
          (k.name
          :: List.map
               (fun topo ->
                 let cgra = Ocgra_arch.Cgra.uniform ~topology:topo ~rows:4 ~cols:4 () in
                 let p = Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:16 () in
                 let rng = Ocgra_util.Rng.create 3 in
                 match Ocgra_mappers.Constructive.map ~restarts:10 p rng with
                 | Some m, _, _ -> Printf.sprintf "II=%d" m.Ocgra_core.Mapping.ii
                 | None, _, _ -> "-")
               Ocgra_arch.Topology.all))
      kernels
  in
  let headers =
    Array.of_list ("kernel" :: List.map Ocgra_arch.Topology.to_string Ocgra_arch.Topology.all)
  in
  Table.print ~headers rows

let ab_predication () =
  section "Ablation: if-then-else mapping schemes (Section III.B.1)";
  let module P = Ocgra_dfg.Prog_ast in
  let ites =
    [
      ( "clip",
        {
          Ocgra_cf.Predication.cond = P.Bin (Ocgra_dfg.Op.Lt, P.Int 127, P.Var "x");
          then_branch = [ ("y", P.Int 127) ];
          else_branch =
            [ ("y", P.Bin (Ocgra_dfg.Op.Add, P.Bin (Ocgra_dfg.Op.Mul, P.Var "x", P.Int 3), P.Int 1)) ];
        } );
      ( "abs-sign",
        {
          Ocgra_cf.Predication.cond = P.Bin (Ocgra_dfg.Op.Lt, P.Var "x", P.Int 0);
          then_branch = [ ("y", P.Neg (P.Var "x")); ("s", P.Int (-1)) ];
          else_branch = [ ("y", P.Var "x"); ("s", P.Int 1) ];
        } );
    ]
  in
  let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 () in
  List.iter
    (fun (name, ite) ->
      Printf.printf "\nkernel %s:\n" name;
      let rows =
        List.map
          (fun (scheme, dfg, ops, depth) ->
            let p = Ocgra_core.Problem.temporal ~dfg ~cgra () in
            let rng = Ocgra_util.Rng.create 5 in
            let mapped =
              match Ocgra_mappers.Constructive.map p rng with
              | Some m, _, _ -> Printf.sprintf "II=%d" m.Ocgra_core.Mapping.ii
              | None, _, _ -> "-"
            in
            [|
              Ocgra_cf.Predication.scheme_to_string scheme; string_of_int ops;
              string_of_int depth; mapped;
            |])
          (Ocgra_cf.Predication.compare_schemes ite)
      in
      Table.print ~headers:[| "scheme"; "ops"; "critical path"; "mapped" |] rows)
    ites

let ab_banks () =
  section "Ablation: memory banks vs stall cycles (Section III.C)";
  let accesses =
    [
      (0, { Ocgra_mem.Bank.array_base = 0; stride = 1; offset = 0 });
      (0, { Ocgra_mem.Bank.array_base = 64; stride = 1; offset = 0 });
      (0, { Ocgra_mem.Bank.array_base = 0; stride = 1; offset = 1 });
      (1, { Ocgra_mem.Bank.array_base = 128; stride = 1; offset = 0 });
      (1, { Ocgra_mem.Bank.array_base = 64; stride = 2; offset = 0 });
    ]
  in
  let rows =
    List.map
      (fun (banks, conflicts) -> [| string_of_int banks; string_of_int conflicts |])
      (Ocgra_mem.Bank.conflicts_by_banks ~bank_counts:[ 1; 2; 4; 8; 16 ] ~ii:2 ~iters:64 accesses)
  in
  Table.print ~headers:[| "banks"; "stall cycles / 64 iters" |] rows

let ab_exact_scaling () =
  section "Ablation: exact-method runtime vs kernel size (the compilation-time challenge)";
  if quick then print_endline "(skipped in quick mode)"
  else begin
    let cgra = Ocgra_arch.Cgra.uniform ~rows:3 ~cols:3 () in
    let sizes = [ 4; 6; 8; 10 ] in
    let rng0 = Ocgra_util.Rng.create 99 in
    let dfgs =
      List.map
        (fun n ->
          let params =
            { Ocgra_workloads.Random_dfg.default with nodes = n; layers = max 2 (n / 3) }
          in
          (n, fst (Ocgra_workloads.Random_dfg.generate ~params rng0)))
        sizes
    in
    (* budgeted versions of the exact mappers: within the budget they
       answer exactly; past it they give up, which is the honest shape
       of the compilation-time story *)
    let mappers =
      [
        ( "sat (40k conflicts/II)",
          fun p rng ->
            let m, _, _, _ = Ocgra_mappers.Sat_temporal.map ~max_conflicts:40_000 p rng in
            m );
        ( "cp (8k failures/II)",
          fun p rng ->
            let m, _, _ = Ocgra_mappers.Cp_temporal.map ~max_failures:8_000 ~routing_retries:3 p rng in
            m );
        ( "branch-and-bound",
          fun p rng ->
            let m, _, _ = Ocgra_mappers.Bb_temporal.map p rng in
            m );
        ( "modulo-greedy",
          fun p rng ->
            let m, _, _ = Ocgra_mappers.Constructive.map p rng in
            m );
      ]
    in
    let rows =
      List.map
        (fun (name, map) ->
          Array.of_list
            (name
            :: List.map
                 (fun (_, dfg) ->
                   let p = Ocgra_core.Problem.temporal ~dfg ~cgra ~max_ii:8 () in
                   (* monotonic elapsed, not [Sys.time] CPU time: a
                      paging/blocked solver must show its real cost *)
                   let t0 = Ocgra_core.Deadline.now () in
                   let m = map p (Ocgra_util.Rng.create 3) in
                   let dt = Ocgra_core.Deadline.now () -. t0 in
                   match m with
                   | Some m -> Printf.sprintf "II=%d %.2fs" m.Ocgra_core.Mapping.ii dt
                   | None -> Printf.sprintf "- %.2fs" dt)
                 dfgs))
        mappers
    in
    let headers =
      Array.of_list ("mapper" :: List.map (fun (n, _) -> Printf.sprintf "%d nodes" n) dfgs)
    in
    Table.print ~headers rows;
    print_endline "  expected shape: exact methods blow up with size; the heuristic stays flat"
  end

let ab_hwloop () =
  section "Ablation: hardware loops vs host-managed control (Section III.B.2)";
  let model = Ocgra_cf.Hw_loop.default_overhead in
  let rows =
    List.concat_map
      (fun (ii, len) ->
        List.map
          (fun iters ->
            let host = Ocgra_cf.Hw_loop.host_managed_cycles model ~schedule_length:len ~iters in
            let hw = Ocgra_cf.Hw_loop.hw_loop_cycles model ~ii ~schedule_length:len ~iters in
            [|
              Printf.sprintf "II=%d len=%d" ii len;
              string_of_int iters;
              string_of_int host;
              string_of_int hw;
              Printf.sprintf "%.1fx" (float_of_int host /. float_of_int hw);
            |])
          [ 4; 16; 64; 256 ])
      [ (1, 4); (2, 6); (4, 10) ]
  in
  Table.print ~headers:[| "kernel"; "iters"; "host-managed"; "hw loop"; "speedup" |] rows

let ab_unroll () =
  section "Ablation: loop unrolling for throughput (the Fig. 4 'loop unrolling' era)";
  (* unrolling multiplies the work per initiation: effective throughput
     is u / II, until resource pressure raises the II *)
  let kernels = [ Kernels.dot_product (); Kernels.saxpy () ] in
  let factors = [ 1; 2; 4 ] in
  let rows =
    List.map
      (fun (k : Kernels.t) ->
        Array.of_list
          (k.name
          :: List.map
               (fun u ->
                 let dfg = Ocgra_dfg.Transform.unroll k.dfg u in
                 let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 () in
                 let p = Ocgra_core.Problem.temporal ~dfg ~cgra ~max_ii:24 () in
                 let rng = Ocgra_util.Rng.create 13 in
                 match Ocgra_mappers.Constructive.map ~restarts:10 p rng with
                 | Some m, _, _ ->
                     Printf.sprintf "II=%d -> %.2f iters/cycle" m.Ocgra_core.Mapping.ii
                       (float_of_int u /. float_of_int m.Ocgra_core.Mapping.ii)
                 | None, _, _ -> "-")
               factors))
      kernels
  in
  let headers = Array.of_list ("kernel" :: List.map (fun u -> Printf.sprintf "unroll x%d" u) factors) in
  Table.print ~headers rows

let ab_nest () =
  section "Ablation: affine nest transformation before pipelining ([45])";
  let module Nest = Ocgra_cf.Nest in
  let nests =
    [
      ( "stencil {(1,0),(0,1)} lat 2",
        [ { Nest.d_outer = 1; d_inner = 0; latency = 2 }; { Nest.d_outer = 0; d_inner = 1; latency = 2 } ] );
      ("anti-diagonal {(1,-1)} lat 3", [ { Nest.d_outer = 1; d_inner = -1; latency = 3 } ]);
      ("inner recurrence {(0,2)} lat 4", [ { Nest.d_outer = 0; d_inner = 2; latency = 4 } ]);
      ( "coupled {(0,1),(1,-2)} lat 2",
        [ { Nest.d_outer = 0; d_inner = 1; latency = 2 }; { Nest.d_outer = 1; d_inner = -2; latency = 2 } ] );
    ]
  in
  let rows =
    List.map
      (fun (name, deps) ->
        let identity =
          if Nest.legal Nest.Identity deps then string_of_int (Nest.inner_rec_mii Nest.Identity deps)
          else "illegal"
        in
        match Nest.best deps with
        | Some (mii, t) ->
            [| name; identity; Nest.transform_to_string t; string_of_int mii |]
        | None -> [| name; identity; "-"; "-" |])
      nests
  in
  Table.print
    ~headers:[| "nest dependences"; "inner RecMII (identity)"; "best transform"; "inner RecMII (best)" |]
    rows

let ab_regalloc () =
  section "Ablation: rotating vs unified register file need ([29] vs [25])";
  let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 ~rf_size:8 () in
  let rows =
    List.filter_map
      (fun (k : Kernels.t) ->
        let p = Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:16 () in
        let rng = Ocgra_util.Rng.create 7 in
        match Ocgra_mappers.Constructive.map p rng with
        | Some m, _, _ ->
            let s = Ocgra_mem.Regalloc.summarize m ~npe:16 in
            Some
              [|
                k.name;
                string_of_int m.Ocgra_core.Mapping.ii;
                string_of_int s.total_holds;
                string_of_int s.max_rotating;
                string_of_int s.max_unified;
              |]
        | None, _, _ -> None)
      (Kernels.full_suite ())
  in
  Table.print
    ~headers:
      [| "kernel"; "II"; "values in RFs"; "rotating regs (max/PE)"; "unified regs (max/PE)" |]
    rows

(* ------------------------------------------------------------------ *)
(* bechamel: one Test.make per artifact generator                      *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  section "bechamel micro-benchmarks (one test per artifact generator)";
  let open Bechamel in
  let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 () in
  let kernel = Kernels.dot_product () in
  let map_once () =
    let p = Ocgra_core.Problem.temporal ~init:kernel.init ~dfg:kernel.dfg ~cgra () in
    let rng = Ocgra_util.Rng.create 42 in
    ignore (Ocgra_mappers.Constructive.map p rng)
  in
  let sim_once =
    let p = Ocgra_core.Problem.temporal ~init:kernel.init ~dfg:kernel.dfg ~cgra () in
    let rng = Ocgra_util.Rng.create 42 in
    match Ocgra_mappers.Constructive.map p rng with
    | Some m, _, _ ->
        fun () ->
          let io = Ocgra_sim.Machine.io_of_streams ~memory:kernel.memory (kernel.inputs 8) in
          ignore (Ocgra_sim.Machine.run p m io ~iters:8)
    | None, _, _ -> fun () -> ()
  in
  let tests =
    [
      Test.make ~name:"table1-bibliographic"
        (Staged.stage (fun () -> ignore (Ocgra_biblio.Table1.render ())));
      Test.make ~name:"fig4-timeline"
        (Staged.stage (fun () -> ignore (Ocgra_biblio.Timeline.render ())));
      Test.make ~name:"table1-empirical-cell(map dot-product)" (Staged.stage map_once);
      Test.make ~name:"fig1-point(simulate 8 iters)" (Staged.stage sim_once);
      Test.make ~name:"fig2-contexts"
        (Staged.stage (fun () ->
             let p = Ocgra_core.Problem.temporal ~init:kernel.init ~dfg:kernel.dfg ~cgra () in
             let rng = Ocgra_util.Rng.create 42 in
             match Ocgra_mappers.Constructive.map p rng with
             | Some m, _, _ -> ignore (Ocgra_core.Contexts.of_mapping p m)
             | None, _, _ -> ()));
      Test.make ~name:"fig3-frontend"
        (Staged.stage (fun () ->
             let module P = Ocgra_dfg.Prog_ast in
             ignore
               (Ocgra_dfg.Prog.to_cdfg
                  [
                    P.For
                      ( "i",
                        P.Int 0,
                        P.Int 8,
                        [ P.Assign ("s", P.Bin (Ocgra_dfg.Op.Add, P.Var "s", P.Var "i")) ] );
                  ])));
    ]
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all
          (Benchmark.cfg ~quota:(Time.second 0.25) ~kde:None ())
          Toolkit.Instance.[ monotonic_clock ]
          test
      in
      let stats =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-44s %14.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "  %-44s (no estimate)\n" name)
        stats)
    tests

(* ------------------------------------------------------------------ *)
(* Serve: mapping-as-a-service, canonical-form cache                   *)
(* ------------------------------------------------------------------ *)

(* The request stream is generated (seed-deterministically), committed
   as SERVE_STREAM.jsonl, and replayed through the same wire codec the
   daemon uses.  Mix: one cold request per kernel, exact duplicates,
   isomorphic renamings (random node permutations via [Canon.permute]),
   three kernels whose fault mask grows in nested seeded steps (repair
   territory), and one off-architecture request (a genuinely new cache
   class).  Well over 30% of the stream is duplicate-or-isomorphic, so
   the cache-hit path dominates and its latency separates cleanly from
   the cold maps. *)

let serve_seed = 5
let serve_chunk = 8
let serve_kernels = [ "dot-product"; "saxpy"; "fir4"; "absdiff"; "running-max"; "horner" ]
let serve_grow_kernels = [ "saxpy"; "fir4"; "absdiff" ]

let serve_stream () =
  let module W = Ocgra_svc.Wire in
  let rng = Ocgra_util.Rng.create serve_seed in
  let base name = { W.default_req with W.payload = W.Kernel name } in
  let colds = List.map (fun k -> { (base k) with W.id = "cold-" ^ k }) serve_kernels in
  (* two nested-mask growth families on disjoint kernel sets (one
     entry per class — mixing mask shapes on one kernel would make the
     steps incomparable and force cold maps): a seeded family whose
     mask grows by re-drawing more faults from the same stream, and an
     explicit family that knocks out named PEs/links, covering both
     mask forms of the wire codec *)
  let grow kernels step faults n =
    List.map
      (fun k ->
        {
          (base k) with
          W.id = Printf.sprintf "%s-%s" step k;
          faults;
          n_faults = n;
          fault_seed = 3;
        })
      kernels
  in
  let seeded n = grow serve_grow_kernels (Printf.sprintf "seed%d" n) [] n in
  let expl = grow [ "dot-product"; "running-max"; "horner" ] in
  let m1 = [ Ocgra_arch.Fault.Pe_down 1 ] in
  let m2 = Ocgra_arch.Fault.Pe_down 2 :: m1 in
  let m3 = Ocgra_arch.Fault.Link_down (9, 10) :: m2 in
  let arch = [ { (base "dot-product") with W.id = "arch-5x5"; rows = 5; cols = 5 } ] in
  (* duplicates and renamings, two of each per kernel, interleaved *)
  let warm =
    List.concat_map
      (fun k ->
        let dfg = (Ocgra_workloads.Kernels.find k).Ocgra_workloads.Kernels.dfg in
        List.concat_map
          (fun i ->
            let perm =
              Ocgra_util.Rng.shuffle rng (Array.init (Ocgra_dfg.Dfg.node_count dfg) Fun.id)
            in
            [
              { (base k) with W.id = Printf.sprintf "dup-%s-%d" k i };
              {
                W.default_req with
                W.id = Printf.sprintf "iso-%s-%d" k i;
                payload = W.Inline (Ocgra_svc.Canon.permute dfg perm);
              };
            ])
          [ 1; 2 ])
      serve_kernels
  in
  colds @ seeded 2 @ expl "mask1" m1 0 @ arch @ warm @ seeded 4 @ expl "mask2" m2 0
  @ seeded 6 @ expl "mask3" m3 0

let serve_bench () =
  section "Serve: canonical-form mapping cache + fault-driven incremental remap";
  let module W = Ocgra_svc.Wire in
  let module Svc = Ocgra_svc.Svc in
  let stream = serve_stream () in
  let oc = open_out "SERVE_STREAM.jsonl" in
  List.iter (fun r -> output_string oc (W.req_to_json r ^ "\n")) stream;
  close_out oc;
  (* replay through the wire codec — the daemon's exact input path *)
  let lookup name =
    match Ocgra_workloads.Kernels.find name with
    | k -> Ok k.Ocgra_workloads.Kernels.dfg
    | exception Invalid_argument m -> Error m
  in
  let reqs =
    List.map
      (fun line ->
        match W.parse_req line with
        | Ok r -> (
            match W.to_request ~lookup r with
            | Ok req -> req
            | Error m -> failwith ("serve bench: " ^ m))
        | Error m -> failwith ("serve bench: " ^ m))
      (Ocgra_par.Journal.read_lines "SERVE_STREAM.jsonl")
  in
  let svc =
    Svc.create
      {
        Svc.default_config with
        Svc.capacity = 64;
        chain = [ Ocgra_mappers.Registry.find "modulo-greedy" ];
        workers = Ocgra_par.Pool.default_workers ();
        seed = 7;
      }
  in
  let t0 = Ocgra_core.Deadline.now () in
  let rec drain acc = function
    | [] -> List.rev acc
    | rest ->
        let chunk = List.filteri (fun i _ -> i < serve_chunk) rest in
        let rest = List.filteri (fun i _ -> i >= serve_chunk) rest in
        drain (List.rev_append (Svc.submit_batch svc chunk) acc) rest
  in
  let responses = drain [] reqs in
  let wall = Ocgra_core.Deadline.now () -. t0 in
  let lat pred = List.filter_map (fun (r : Svc.response) -> if pred r.Svc.served then Some r.Svc.elapsed_s else None) responses in
  let hits = lat (function Svc.Hit | Svc.Iso_hit -> true | _ -> false) in
  let isos = lat (function Svc.Iso_hit -> true | _ -> false) in
  let repairs = lat (function Svc.Repair_hit _ -> true | _ -> false) in
  let colds = lat (function Svc.Miss -> true | _ -> false) in
  let med l = Option.value (median_of l) ~default:0.0 in
  let p90 l =
    match List.sort compare l with
    | [] -> 0.0
    | s -> List.nth s (min (List.length s - 1) (List.length s * 9 / 10))
  in
  let rungs =
    List.filter_map
      (fun (r : Svc.response) ->
        match r.Svc.served with
        | Svc.Repair_hit rung -> Some (Ocgra_core.Mapper.rung_to_string rung)
        | _ -> None)
      responses
  in
  let s = Svc.stats svc in
  let speedup = if med hits > 0.0 then med colds /. med hits else 0.0 in
  Printf.printf "  %-28s %8s %14s %14s\n" "path" "count" "median" "p90";
  let row name l =
    Printf.printf "  %-28s %8d %11.1f us %11.1f us\n" name (List.length l)
      (med l *. 1e6) (p90 l *. 1e6)
  in
  row "hit (exact + isomorphic)" hits;
  row "  of which isomorphic" isos;
  row "repair-hit (mask grew)" repairs;
  row "cold map (miss)" colds;
  Printf.printf "  hit vs cold speedup: %.0fx%s\n" speedup
    (if speedup >= 100.0 then "  (>= 100x)" else "  (BELOW 100x)");
  Printf.printf
    "  totals: %d requests, %d hits + %d iso + %d repair / %d cold, %d rejected, %d coalesced, \
     %d demotions, cache %d entries\n"
    s.Svc.requests s.Svc.hits s.Svc.iso_hits s.Svc.repair_hits s.Svc.misses s.Svc.rejections
    s.Svc.coalesced s.Svc.demotions s.Svc.entries;
  write_snapshot "BENCH_PR10.json" "serve"
    [
      ("seed", int serve_seed);
      ("chunk", int serve_chunk);
      ("requests", int s.Svc.requests);
      ( "counts",
        Json.Obj
          [
            ("hits", int s.Svc.hits);
            ("iso_hits", int s.Svc.iso_hits);
            ("repair_hits", int s.Svc.repair_hits);
            ("misses", int s.Svc.misses);
            ("rejections", int s.Svc.rejections);
            ("coalesced", int s.Svc.coalesced);
            ("demotions", int s.Svc.demotions);
            ("entries", int s.Svc.entries);
            ("evictions", int s.Svc.evictions);
          ] );
      ( "rungs",
        Json.Obj
          (List.map
             (fun r -> (r, int (List.length (List.filter (( = ) r) rungs))))
             (List.sort_uniq compare rungs)) );
      ( "latency",
        Json.Obj
          [
            ("hit_median_s", fixed 9 (med hits));
            ("hit_p90_s", fixed 9 (p90 hits));
            ("iso_hit_median_s", fixed 9 (med isos));
            ("repair_median_s", fixed 9 (med repairs));
            ("cold_median_s", fixed 9 (med colds));
            ("wall_s", fixed 6 wall);
          ] );
      ("speedup_hit_vs_cold", fixed 1 speedup);
      ("speedup_ge_100x", Json.Bool (speedup >= 100.0));
    ];
  print_endline "  wrote SERVE_STREAM.jsonl + BENCH_PR10.json"

let run_everything () =
  t1a ();
  f4 ();
  f2 ();
  f3 ();
  ab_hwloop ();
  ab_banks ();
  ab_predication ();
  ab_nest ();
  ab_unroll ();
  ab_regalloc ();
  ab_topology ();
  ab_ii_vs_size ();
  f1 ();
  t1b ();
  repair_bench ();
  sat_sweep_bench ();
  serve_bench ();
  ab_exact_scaling ();
  bechamel_suite ();
  print_endline "\nAll artifacts regenerated."

let () =
  if t1b_only then begin
    t1b ();
    print_endline "\nEmpirical sweep regenerated."
  end
  else if repair_only then begin
    repair_bench ();
    print_endline "\nRepair-ladder walk regenerated."
  end
  else if sat_sweep_only then begin
    sat_sweep_bench ();
    print_endline "\nSAT incremental-sweep comparison regenerated."
  end
  else if serve_only then begin
    serve_bench ();
    print_endline "\nServe-cache stream replay regenerated."
  end
  else run_everything ()
