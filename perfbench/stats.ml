(* The per-phase tally every workload reports into, and the statistics
   taken from it. *)

let now = Ocgra_obs.Trace.now

(* A growable float buffer for one pass's latencies or busy intervals. *)
type buf = { mutable data : float array; mutable n : int }

let buf () = { data = Array.make 1024 0.0; n = 0 }

let push b x =
  if b.n = Array.length b.data then begin
    let d = Array.make (2 * b.n) 0.0 in
    Array.blit b.data 0 d 0 b.n;
    b.data <- d
  end;
  b.data.(b.n) <- x;
  b.n <- b.n + 1

(* Words allocated by this process so far, minor and major heap
   (promotions counted once). *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* What one phase — a run of whole passes over a workload's ops, every
   pass the same work in the same order — measured.  An op's latency is
   the time it spent inside the program; the busy intervals are those
   same spans (serve: one per batch), so the oracle work the benchmark
   does between ops is never billed to the program.  Work counts
   ([ii_sum], [sim_cycles], the words allocated inside the busy
   intervals) are kept for the first pass only, so they repeat exactly
   at a fixed seed. *)
type pass = { p_lat : float array; p_busy : float array }

type tally = {
  lat : buf;  (** latencies of the pass in progress *)
  busy : buf;  (** busy intervals of the pass in progress *)
  mutable ops : int;
  mutable failed : int;
  mutable mismatches : string list;
  mutable done_ : pass list;  (** completed passes, newest first *)
  mutable passes : int;
  mutable pass_ii : int;
  mutable pass_cycles : int;
  mutable pass_words : float;
  mutable first_ii : int;
  mutable first_cycles : int;
  mutable first_words : float;
}

let tally () =
  {
    lat = buf ();
    busy = buf ();
    ops = 0;
    failed = 0;
    mismatches = [];
    done_ = [];
    passes = 0;
    pass_ii = 0;
    pass_cycles = 0;
    pass_words = 0.0;
    first_ii = 0;
    first_cycles = 0;
    first_words = 0.0;
  }

(* Record one op.  [ii] is the achieved II of a mapped op; [failed]
   covers no mapping, a rejection, an undecided case and a validator
   veto, and a failed op is charged [penalty_ii] of its problem instead,
   so that giving up on a mapping can never lower [ii_sum]. *)
let op t ~latency_s ~ii ?(sim_cycles = 0) ~failed () =
  push t.lat latency_s;
  t.ops <- t.ops + 1;
  if failed then t.failed <- t.failed + 1;
  t.pass_ii <- t.pass_ii + ii;
  t.pass_cycles <- t.pass_cycles + sim_cycles

(* One above the largest II the problem allows. *)
let penalty_ii p = Ocgra_core.Problem.max_ii p + 1

(* A busy interval: [start] opens it, [stop] closes it, records its
   time and the words allocated in it, and returns the time. *)
type clock = { t0 : float; w0 : float }

let start () =
  let w0 = words () in
  { t0 = now (); w0 }

let stop t c =
  let dt = now () -. c.t0 in
  t.pass_words <- t.pass_words +. (words () -. c.w0);
  push t.busy dt;
  dt
let mismatch t msg = t.mismatches <- msg :: t.mismatches

let end_pass t =
  let take b =
    let a = Array.sub b.data 0 b.n in
    b.n <- 0;
    a
  in
  let p_lat = take t.lat in
  t.done_ <- { p_lat; p_busy = take t.busy } :: t.done_;
  if t.passes = 0 then begin
    t.first_ii <- t.pass_ii;
    t.first_cycles <- t.pass_cycles;
    t.first_words <- t.pass_words
  end;
  t.passes <- t.passes + 1;
  t.pass_ii <- 0;
  t.pass_cycles <- 0;
  t.pass_words <- 0.0

let sum = Array.fold_left ( +. ) 0.0

let rate p =
  if sum p.p_busy > 0.0 then float_of_int (Array.length p.p_lat) /. sum p.p_busy else 0.0

(* Best of the run's executions, per op (or per busy interval).  The
   host is shared: its speed swings by up to 1.7x for seconds at a time
   as neighbours load the cores, and interference only ever slows an
   execution down.  Every pass replays the same ops, so the fastest of
   an op's executions is the one least disturbed; throughput and the
   latency percentiles are taken over these bests. *)
let best t f =
  match t.done_ with
  | [] -> [||]
  | p :: rest ->
      List.fold_left (fun acc q -> Array.mapi (fun i x -> Float.min x (f q).(i)) acc) (f p) rest

let throughput t =
  let b = sum (best t (fun p -> p.p_busy)) in
  match t.done_ with p :: _ when b > 0.0 -> float_of_int (Array.length p.p_lat) /. b | _ -> 0.0

(* Nearest-rank percentile of the ops' best latencies.  It is reported
   only when at least ten executions lie beyond it (the ops above it
   times the passes that ran each of them). *)
let percentile t q =
  let a = best t (fun p -> p.p_lat) in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  if (n - rank) * t.passes < 10 then None else Some a.(rank - 1)

(* Peak resident set of this process (the workload runs alone in it),
   the kernel's VmHWM. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> failwith "no VmHWM line in /proc/self/status"
    | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.0
        | exception _ -> scan ())
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
