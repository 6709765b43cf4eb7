(* Per-layer metrics of a traced run, read from outside the program:
   the spans, counters, histograms and events the library already
   records into the [Ctx.t] the benchmark hands it, plus the
   benchmark's own [bench:*] spans and [bench.*] counters around the
   public calls it makes.  Everything is taken over a window — the
   first traced pass — so that set-up and warm-up never leak in and
   work counts repeat exactly at a fixed seed. *)

module Ctx = Ocgra_obs.Ctx
module Trace = Ocgra_obs.Trace
module Metrics = Ocgra_obs.Metrics
module Hist = Ocgra_obs.Hist
module Events = Ocgra_obs.Events

type mark = {
  at : float;
  counters : (string * int) list;
  hists : (string * (int * int) list) list;
  events : int;
}

let mark obs =
  let h = Ctx.hists obs in
  {
    at = Trace.now ();
    counters = Metrics.dump (Ctx.metrics obs);
    hists = List.map (fun (name, _) -> (name, Hist.buckets h name)) (Hist.dump h);
    events = Events.count (Ctx.events obs);
  }

type window = { obs : Ctx.t; a : mark; b : mark; spans : Trace.span list }

let window obs a b =
  let spans =
    List.filter
      (fun (s : Trace.span) -> s.Trace.ts >= a.at && s.Trace.ts +. s.Trace.dur <= b.at)
      (Trace.spans (Ctx.trace obs))
  in
  { obs; a; b; spans }

let counter w name =
  let get m = Option.value (List.assoc_opt name m.counters) ~default:0 in
  get w.b - get w.a

(* p50 of the observations made inside the window, from bucket deltas;
   like [Hist] itself it reports the bucket's lower bound. *)
let hist_p50 w name =
  let get m = Option.value (List.assoc_opt name m.hists) ~default:[] in
  let before = get w.a in
  let delta =
    List.filter_map
      (fun (lo, c) ->
        let c = c - Option.value (List.assoc_opt lo before) ~default:0 in
        if c > 0 then Some (lo, c) else None)
      (get w.b)
  in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 delta in
  let rank = (total + 1) / 2 in
  let rec walk seen = function
    | [] -> 0
    | (lo, c) :: rest -> if seen + c >= rank then lo else walk (seen + c) rest
  in
  if total = 0 then 0 else walk 0 delta

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p
let named p (s : Trace.span) = has_prefix p s.Trace.name
let busy w p =
  List.fold_left (fun acc s -> if named p s then acc +. s.Trace.dur else acc) 0.0 w.spans
let count w p = List.length (List.filter (named p) w.spans)

(* Self time of the spans named [p]: each one's duration minus what
   its direct children cover, nesting taken per domain lane by time
   containment (how the spans were recorded). *)
let self_time w p =
  let spans =
    List.sort
      (fun (x : Trace.span) (y : Trace.span) ->
        compare
          (x.Trace.tid, x.Trace.ts, -.x.Trace.dur)
          (y.Trace.tid, y.Trace.ts, -.y.Trace.dur))
      w.spans
    |> Array.of_list
  in
  let child = Array.make (Array.length spans) 0.0 in
  let stack = ref [] in
  let eps = 1e-9 in
  Array.iteri
    (fun i (s : Trace.span) ->
      let contains j =
        let q = spans.(j) in
        q.Trace.tid = s.Trace.tid
        && s.Trace.ts +. s.Trace.dur <= q.Trace.ts +. q.Trace.dur +. eps
      in
      let rec pop = function j :: rest when not (contains j) -> pop rest | st -> st in
      stack := pop !stack;
      (match !stack with j :: _ -> child.(j) <- child.(j) +. s.Trace.dur | [] -> ());
      stack := i :: !stack)
    spans;
  let total = ref 0.0 in
  Array.iteri (fun i s -> if named p s then total := !total +. (s.Trace.dur -. child.(i))) spans;
  !total

let sat_verdicts w =
  List.filteri
    (fun i (e : Events.event) -> i >= w.a.events && i < w.b.events && e.Events.name = "sat.ii")
    (Events.events (Ctx.events w.obs))
  |> List.map (fun (e : Events.event) ->
         match List.assoc_opt "verdict" e.Events.args with Some (Events.Str v) -> v | _ -> "")

let ratio a b = if b > 0.0 then a /. b else 0.0

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let c name unit_ value = { name; value = float_of_int value; unit_ }

(* The per-layer metrics, in BENCHMARK.json order.  Each layer's
   comment names the end-to-end metric and workload it should move. *)
let metrics w =
  let ctr = counter w in
  let sat_busy = busy w "sat:ii=" and candidates = count w "sat:ii=" in
  let sim_busy = busy w "sim:run" in
  let requests = ctr "svc.requests" in
  let repair_hits = ctr "svc.repair_hits" in
  [
    (* sat: exact-sweep throughput and p50; nothing elsewhere *)
    m "sat.busy_s" "s" sat_busy;
    c "sat.candidates" "count" candidates;
    m "sat.sat_share" "share"
      (ratio
         (float_of_int (List.length (List.filter (( = ) "sat") (sat_verdicts w))))
         (float_of_int candidates));
    c "sat.conflicts" "count" (ctr "sat.conflicts");
    c "sat.decisions" "count" (ctr "sat.decisions");
    c "sat.propagations" "count" (ctr "sat.propagations");
    m "sat.props_per_s" "1/s" (ratio (float_of_int (ctr "sat.propagations")) sat_busy);
    c "sat.restarts" "count" (ctr "sat.restarts");
    c "sat.reduces" "count" (ctr "sat.reduces");
    c "sat.lbd.p50" "count" (hist_p50 w "sat.lbd");
    (* core.mapper: compile-sim throughput, serve-churn p99, ii_sum;
       flat on serve-hot *)
    c "core.mapper.calls" "count" (count w "map:");
    m "core.mapper.busy_s" "s" (busy w "map:");
    m "core.mapper.self_s" "s" (self_time w "map:");
    c "core.mapper.ii_attempts" "count" (ctr "bench.ii_attempts");
    c "core.mii.gap" "count" (ctr "bench.mii_gap");
    (* mappers: as core.mapper; flat on exact-sweep and serve-hot *)
    c "mappers.constructive.attempts" "count" (ctr "constructive.attempts");
    m "mappers.ems.busy_s" "s" (busy w "ems:");
    m "mappers.sa.busy_s" "s" (busy w "sa:");
    (* core.pathfinder: compile-sim via dresc-sa, serve-churn via repair *)
    c "core.pathfinder.iterations" "count" (ctr "pathfinder.iterations");
    c "core.pathfinder.ripup.p50" "count" (hist_p50 w "pathfinder.ripup");
    c "core.pathfinder.overuse.p50" "count" (hist_p50 w "pathfinder.overuse");
    (* core.check: serve-hot p50, where every hit is re-certified *)
    c "core.check.calls" "count" (count w "validate" + count w "bench:validate");
    m "core.check.busy_s" "s" (busy w "validate" +. busy w "bench:validate");
    c "core.check.vetoes" "count" (ctr "mapper.invalid" + ctr "bench.svc.demotions");
    (* core.contexts: compile-sim throughput *)
    m "core.contexts.busy_s" "s" (busy w "bench:contexts");
    c "core.contexts.words" "count" (ctr "bench.contexts.words");
    (* sim: compile-sim throughput and p50; absent elsewhere *)
    m "sim.busy_s" "s" sim_busy;
    c "sim.cycles" "count" (ctr "sim.cycles");
    c "sim.op_instances" "count" (ctr "sim.op_instances");
    m "sim.cycles_per_s" "1/s" (ratio (float_of_int (ctr "sim.cycles")) sim_busy);
    (* svc.wire: serve-hot throughput and p50; small on serve-churn *)
    m "svc.wire.decode_s" "s" (busy w "bench:decode");
    m "svc.wire.encode_s" "s" (busy w "bench:encode");
    c "svc.wire.bytes_in" "B" (ctr "bench.wire.bytes_in");
    (* svc.canon: serve-hot p50 *)
    m "svc.canon.busy_s" "s" (busy w "bench:canon");
    (* svc: hits move serve-hot p50; misses, evictions and waiting move
       serve-churn p99 and throughput *)
    m "svc.batch.busy_s" "s" (busy w "bench:submit_batch");
    m "svc.wait_s" "s" (float_of_int (ctr "bench.svc.wait_ns") /. 1e9);
    m "svc.hit_share" "share"
      (ratio (float_of_int (ctr "svc.hits" + ctr "svc.iso_hits")) (float_of_int requests));
    c "svc.hits" "count" (ctr "svc.hits");
    c "svc.iso_hits" "count" (ctr "svc.iso_hits");
    c "svc.repair_hits" "count" repair_hits;
    c "svc.misses" "count" (ctr "svc.misses");
    c "svc.evictions" "count" (ctr "bench.svc.evictions");
    c "svc.coalesced" "count" (ctr "bench.svc.coalesced");
    c "svc.demotions" "count" (ctr "bench.svc.demotions");
    c "svc.rejections" "count" (ctr "svc.rejections");
    c "svc.hit_us.p50" "us" (hist_p50 w "svc.hit_us");
    c "svc.miss_us.p50" "us" (hist_p50 w "svc.miss_us");
    c "svc.repair_us.p50" "us" (hist_p50 w "svc.repair_us");
    (* core.repair: serve-churn p99; flat on serve-hot *)
    m "core.repair.busy_s" "s" (busy w "repair:");
    c "core.repair.escalations" "count" (ctr "repair.escalations");
    m "core.repair.incremental_share" "share"
      (ratio (float_of_int (ctr "bench.repair.incremental")) (float_of_int repair_hits));
    (* par: serve-churn fail_share *)
    c "par.supervise.retries" "count" (ctr "supervise.retries");
    c "par.supervise.quarantined" "count" (ctr "supervise.quarantined");
  ]
