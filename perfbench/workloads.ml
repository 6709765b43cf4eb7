(* The four workloads.  Each is driven from one process by one
   closed-loop client: the next op starts only when the previous one
   has been answered and checked.  Worker count is pinned to 1
   everywhere (the serve pool, every race), so latencies do not depend
   on the host's core count.

   A workload's [setup] builds everything the timed phase needs from
   the seed alone — cases, graphs, request streams, reference outputs,
   [serve-hot]'s cache warm-up — and returns an instance whose [pass]
   runs the workload's ops once, reporting each op into a
   [Stats.tally].  Every op carries its oracle; a wrong answer is a
   mismatch (the run exits non-zero), a missing one is a failure. *)

module Ctx = Ocgra_obs.Ctx
module Rng = Ocgra_util.Rng
module Dfg = Ocgra_dfg.Dfg
module Cgra = Ocgra_arch.Cgra
module Problem = Ocgra_core.Problem
module Mapping = Ocgra_core.Mapping
module Mapper = Ocgra_core.Mapper
module Check = Ocgra_core.Check
module Contexts = Ocgra_core.Contexts
module Mii = Ocgra_core.Mii
module Machine = Ocgra_sim.Machine
module K = Ocgra_workloads.Kernels
module Random_dfg = Ocgra_workloads.Random_dfg
module Registry = Ocgra_mappers.Registry
module Svc = Ocgra_svc.Svc
module Wire = Ocgra_svc.Wire
module Canon = Ocgra_svc.Canon

type scale = Full | Tiny

type instance = { pass : Ctx.t -> Stats.tally -> unit }

type t = {
  name : string;
  why : string;
  setup : scale:scale -> seed:int -> plant:bool -> Ctx.t -> instance;
}

let now = Stats.now
let span obs name f = Ctx.span obs ~cat:"bench" name f
let mesh n = Cgra.uniform ~rows:n ~cols:n ()

(* The ops of a pass in a seeded order. *)
let shuffled seed xs =
  let a = Array.of_list xs in
  Rng.shuffle_in_place (Rng.create seed) a;
  a

(* The random graphs of every workload are one fixed set, drawn from a
   fixed generator seed and never renumbered: mapping cost swings with a
   graph's structure and even with its node numbering (edge-centric
   spends 0.3-2 s on one 32-node graph or another; peak memory of
   compile-sim moved between 48 and 97 MB across renumberings), so
   graphs that change with the workload seed would let the seed, not
   the code, set the figures.  The seed orders the ops and draws the
   request streams. *)
let graph_seed = 1

let random_graphs ~nodes n =
  let rng = Rng.create (graph_seed + (1000 * nodes)) in
  let params = { Random_dfg.default with Random_dfg.nodes; layers = nodes / 4 } in
  List.init n (fun _ -> Random_dfg.generate ~params rng)

(* A one-shot compile starts from a collected heap, as a fresh
   [ocgra map] or [ocgra sim] process does; collecting before each op,
   outside its timing, also keeps one op's garbage from being billed to
   the next one in the seeded order. *)
let fresh_heap () = Gc.full_major ()

(* ------------------------------------------------------------------ *)
(* exact-sweep                                                          *)
(* ------------------------------------------------------------------ *)

(* Expected optimal II per (kernel, grid).  The entries above MII rest
   on the solver's own UNSAT verdicts at II-1: nothing checks those
   proofs yet, so a solver bug that refutes a feasible II would show
   here as a lower "expected" value, not as a mismatch.  Left out:
   cases that time out (fir4, sobel-row, cmac on 2x2), which measure
   only the budget, and mix-round 2x2 (II 4) and matvec2 3x3 (II 2),
   which solve in 4 s and 2 s: with them a pass took 8.5 s, a run held
   two passes, and its figures rode on the host's noise.  Three cases
   at MII (10-40 ms) against four above it put the median op on
   running-max 2x2, a 0.1 s solve of some 1700 conflicts. *)
let exact_cases =
  [
    (* optimal II > MII: the shared incremental solver refutes the
       candidates below it first *)
    ("running-max", 2, 3);
    ("absdiff", 2, 3);
    ("prefix-sum", 2, 3);
    ("moving-avg3", 3, 2);
    (* solved at MII *)
    ("dot-product", 2, 2);
    ("iir2", 2, 3);
    ("alpha-blend", 3, 2);
  ]

let exact_tiny = [ ("running-max", 2, 3); ("dot-product", 2, 2); ("iir2", 2, 3) ]
let exact_max_ii = 8
let exact_budget_s = 60.0
let sat_seed = 11

let exact_sweep =
  {
    name = "exact-sweep";
    why =
      "the sat mapper over kernel x grid cases it decides within budget, half with optimal \
       II > MII: nearly all time is in lib/sat and Sat_temporal, which no other workload \
       touches";
    setup =
      (fun ~scale ~seed ~plant _obs ->
        let sat = Registry.find "sat" in
        let cases =
          List.mapi
            (fun i (name, grid, ii) ->
              let k = K.find name in
              let cgra = mesh grid in
              let p = Problem.temporal ~init:k.K.init ~dfg:k.K.dfg ~cgra ~max_ii:exact_max_ii () in
              let expected = if plant && i = 0 then ii + 1 else ii in
              (Printf.sprintf "%s %dx%d" name grid grid, p, Mii.mii k.K.dfg cgra, expected))
            (match scale with Full -> exact_cases | Tiny -> exact_tiny)
        in
        let ops = shuffled seed cases in
        {
          pass =
            (fun obs t ->
              Array.iter
                (fun (label, p, mii, expected) ->
                  fresh_heap ();
                  let c = Stats.start () in
                  let o = Mapper.run sat ~seed:sat_seed ~deadline_s:exact_budget_s ~obs p in
                  let dt = Stats.stop t c in
                  Ctx.add obs "bench.ii_attempts" o.Mapper.attempts;
                  match o.Mapper.mapping with
                  | Some m when o.Mapper.proven_optimal ->
                      let ii = m.Mapping.ii in
                      Ctx.add obs "bench.mii_gap" (ii - mii);
                      if ii <> expected then
                        Stats.mismatch t
                          (Printf.sprintf "%s: proven II %d, expected %d" label ii expected);
                      Stats.op t ~latency_s:dt ~ii ~failed:false ()
                  (* no mapping, or one not proven optimal: undecided *)
                  | _ -> Stats.op t ~latency_s:dt ~ii:(Stats.penalty_ii p) ~failed:true ())
                ops);
        });
  }

(* ------------------------------------------------------------------ *)
(* compile-sim                                                          *)
(* ------------------------------------------------------------------ *)

(* One input of the compile-and-verify flow: the problem on the 4x4
   mesh, its input streams, and the reference outputs of
   [Ocgra_dfg.Eval] at the fixed trip count. *)
type cs_input = {
  label : string;
  problem : Problem.t;
  streams : (string * int array) list;
  memory : (string * int array) list;
  expected : (string * int list) list;
  cs_mii : int;
}

let cs_iters = 1024

let cs_random_16 = 6
(* one 32-node graph: edge-centric spends 0.6-2.3 s on each of the
   next ones, which would double the pass *)
let cs_random_32 = 1

let cs_outputs dfg =
  List.filter_map
    (fun v -> match Dfg.op dfg v with Ocgra_dfg.Op.Output n -> Some n | _ -> None)
    (List.init (Dfg.node_count dfg) Fun.id)

let cs_input ~label ~init ~dfg ~streams ~memory ~outputs =
  let cgra = mesh 4 in
  let env = Ocgra_dfg.Eval.env_of_streams ~memory streams in
  let reference = Ocgra_dfg.Eval.run ~init dfg env ~iters:cs_iters in
  {
    label;
    problem = Problem.temporal ~init ~dfg ~cgra ();
    streams;
    memory;
    expected = List.map (fun o -> (o, Ocgra_dfg.Eval.output_stream reference o)) outputs;
    cs_mii = Mii.mii dfg cgra;
  }

let plant_output inp =
  match inp.expected with
  | (o, x :: xs) :: rest -> { inp with expected = (o, (x + 1) :: xs) :: rest }
  | _ -> inp

let cs_op obs t inp mapper =
  fresh_heap ();
  let c = Stats.start () in
  let o = Mapper.run mapper ~seed:7 ~obs inp.problem in
  Ctx.add obs "bench.ii_attempts" o.Mapper.attempts;
  match o.Mapper.mapping with
  | None ->
      let dt = Stats.stop t c in
      Stats.op t ~latency_s:dt ~ii:(Stats.penalty_ii inp.problem) ~failed:true ()
  | Some m ->
      let words =
        span obs "bench:contexts" (fun () ->
            Contexts.encode (Contexts.of_mapping inp.problem m)
            |> Array.fold_left (fun acc w -> acc + Array.length w) 0)
      in
      let io = Machine.io_of_streams ~memory:inp.memory inp.streams in
      let verdict =
        match Machine.run ~obs inp.problem m io ~iters:cs_iters with
        | exception Machine.Simulation_error e ->
            Error
              (Printf.sprintf "simulation refused at cycle %d: %s" e.Machine.cycle
                 e.Machine.message)
        | r -> (
            match
              List.find_opt (fun (o, want) -> Machine.output_stream r o <> want) inp.expected
            with
            | Some (o, _) -> Error ("output " ^ o ^ " differs from the reference interpreter")
            | None -> Ok r.Machine.stats.Machine.cycles)
      in
      let dt = Stats.stop t c in
      Ctx.add obs "bench.contexts.words" words;
      Ctx.add obs "bench.mii_gap" (m.Mapping.ii - inp.cs_mii);
      let sim_cycles =
        match verdict with
        | Ok c -> c
        | Error msg ->
            Stats.mismatch t (Printf.sprintf "%s / %s: %s" inp.label mapper.Mapper.name msg);
            0
      in
      Stats.op t ~latency_s:dt ~ii:m.Mapping.ii ~sim_cycles ~failed:false ()

let compile_sim =
  {
    name = "compile-sim";
    why =
      "map, encode, simulate and check library kernels and seeded random graphs on a 4x4 mesh \
       with the heuristic temporal tier: mappers, router and simulator do the work, no SAT";
    setup =
      (fun ~scale ~seed ~plant _obs ->
        let kernels =
          match scale with Full -> K.all () | Tiny -> [ K.dot_product (); K.fir4 () ]
        in
        let n16, n32 = match scale with Full -> (cs_random_16, cs_random_32) | Tiny -> (1, 0) in
        let graphs nodes n =
          List.mapi
            (fun i (dfg, streams) ->
              cs_input
                ~label:(Printf.sprintf "random%d-%d" nodes i)
                ~init:(fun _ -> 0) ~dfg ~streams:(streams cs_iters) ~memory:[]
                ~outputs:(cs_outputs dfg))
            (random_graphs ~nodes n)
        in
        let of_kernel (k : K.t) =
          cs_input ~label:k.K.name ~init:k.K.init ~dfg:k.K.dfg ~streams:(k.K.inputs cs_iters)
            ~memory:k.K.memory ~outputs:k.K.outputs
        in
        let find = Registry.find in
        let heuristic = [ find "modulo-greedy"; find "edge-centric" ] in
        (* dresc-sa routes through Finalize -> PathFinder; on a random
           graph it costs 2-5 s, so it maps the library kernels only *)
        let kernel_ops =
          List.concat_map
            (fun k ->
              let inp = of_kernel k in
              List.map (fun m -> (inp, m)) (heuristic @ [ find "dresc-sa" ]))
            kernels
        in
        let graph_ops =
          List.concat_map
            (fun inp -> List.map (fun m -> (inp, m)) heuristic)
            (graphs 16 n16 @ graphs 32 n32)
        in
        let ops =
          match kernel_ops @ graph_ops with
          | (inp, m) :: rest when plant -> (plant_output inp, m) :: rest
          | ops -> ops
        in
        let ops = shuffled seed ops in
        { pass = (fun obs t -> Array.iter (fun (inp, m) -> cs_op obs t inp m) ops) });
  }

(* ------------------------------------------------------------------ *)
(* serve-hot and serve-churn                                            *)
(* ------------------------------------------------------------------ *)

(* A cache class: one DFG up to isomorphism on one array. *)
type cls = { payload : Wire.payload; dfg : Dfg.t; rows : int; cols : int; topology : string }

let batch = 32 (* the daemon's default batch size *)

let req cls ~id ?(n_faults = 0) ?(fault_seed = 1) payload =
  {
    Wire.default_req with
    Wire.id;
    payload;
    rows = cls.rows;
    cols = cls.cols;
    topology = cls.topology;
    n_faults;
    fault_seed;
  }

(* Half exact duplicates, half isomorphic renamings. *)
let draw_request rng cls ~id =
  if Rng.bool rng then req cls ~id cls.payload
  else
    let perm = Rng.shuffle rng (Array.init (Dfg.node_count cls.dfg) Fun.id) in
    req cls ~id (Wire.Inline (Canon.permute cls.dfg perm))

let kernel_table = lazy (List.map (fun (k : K.t) -> (k.K.name, k.K.dfg)) (K.all ()))

let lookup name =
  match List.assoc_opt name (Lazy.force kernel_table) with
  | Some d -> Ok d
  | None -> Error ("unknown kernel " ^ name)

let decode line = Result.bind (Wire.parse_req line) (Wire.to_request ~lookup)

let kernel_classes kernels (topology, rows, cols) =
  List.map
    (fun (k : K.t) -> { payload = Wire.Kernel k.K.name; dfg = k.K.dfg; rows; cols; topology })
    kernels

let random_classes n (topology, rows, cols) =
  List.map
    (fun (dfg, _) -> { payload = Wire.Inline dfg; dfg; rows; cols; topology })
    (random_graphs ~nodes:16 n)

type stream = {
  lines : string array;
  class_of : int array;  (** request -> class *)
  mii : int array;  (** request -> MII of its own problem *)
  rep : Canon.t array;  (** class -> canonical form of its representative *)
}

(* Render the request lines and, per request, what the oracle needs
   that the daemon must not see: its class and its MII (memoised per
   class and fault mask — both survive an isomorphic renaming). *)
let stream_of classes reqs =
  let classes = Array.of_list classes in
  let memo = Hashtbl.create 64 in
  let mii_of (c, (r : Wire.req)) =
    let key = (c, r.Wire.n_faults, r.Wire.fault_seed) in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
        let v =
          match decode (Wire.req_to_json r) with
          | Ok q -> Mii.mii q.Svc.dfg q.Svc.cgra
          | Error msg -> failwith ("benchmark stream: " ^ msg)
        in
        Hashtbl.add memo key v;
        v
  in
  let reqs = Array.of_list reqs in
  {
    lines = Array.map (fun (_, r) -> Wire.req_to_json r) reqs;
    class_of = Array.map fst reqs;
    mii = Array.map mii_of reqs;
    rep = Array.map (fun c -> Canon.of_dfg c.dfg) classes;
  }

let make_svc obs ~capacity =
  Svc.create ~obs
    {
      Svc.default_config with
      Svc.capacity;
      chain = [ Registry.find "modulo-greedy" ];
      workers = 1;
      seed = 7;
    }

(* Make a returned mapping wrong on purpose (node 0 bound off the
   array), to prove the oracle catches it. *)
let corrupt (m : Mapping.t) =
  let binding = Array.copy m.Mapping.binding in
  binding.(0) <- (max_int / 2, snd binding.(0));
  { m with Mapping.binding }

(* One pass over the stream, in batches: decode (Wire) -> submit_batch
   -> encode.  A request's latency runs from its batch's start to the
   encoding of its own response.  The oracle re-certifies every
   returned mapping against the request's own problem, between
   batches, outside every latency interval. *)
let serve_pass svc st ~plant obs t =
  let s0 = Svc.stats svc in
  let n = Array.length st.lines in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + batch) in
    let c = Stats.start () in
    let decoded =
      span obs "bench:decode" (fun () ->
          List.init (hi - !lo) (fun k -> (!lo + k, decode st.lines.(!lo + k))))
    in
    let ok = List.filter_map (function i, Ok r -> Some (i, r) | _, Error _ -> None) decoded in
    let resps = span obs "bench:submit_batch" (fun () -> Svc.submit_batch svc (List.map snd ok)) in
    let stamps = Array.make (List.length resps) c.Stats.t0 in
    span obs "bench:encode" (fun () ->
        List.iteri
          (fun k r ->
            ignore (Sys.opaque_identity (Wire.response_to_json r));
            stamps.(k) <- now ())
          resps);
    ignore (Stats.stop t c);
    for i = !lo to hi - 1 do
      Ctx.add obs "bench.wire.bytes_in" (String.length st.lines.(i))
    done;
    List.iter
      (function
        | i, Error msg -> Stats.mismatch t (Printf.sprintf "request %d does not decode: %s" i msg)
        | _ -> ())
      decoded;
    List.iteri
      (fun k ((i, (q : Svc.request)), (r : Svc.response)) ->
        let latency_s = stamps.(k) -. c.Stats.t0 in
        Ctx.add obs "bench.svc.wait_ns" (int_of_float ((latency_s -. r.Svc.elapsed_s) *. 1e9));
        if Ctx.enabled obs then
          span obs "bench:canon" (fun () ->
              let cf = Canon.of_dfg q.Svc.dfg in
              ignore (Sys.opaque_identity (Canon.fingerprint cf));
              ignore (Sys.opaque_identity (Canon.witness st.rep.(st.class_of.(i)) cf)));
        let problem = Problem.temporal ?max_ii:q.Svc.max_ii ~dfg:q.Svc.dfg ~cgra:q.Svc.cgra () in
        match (r.Svc.served, r.Svc.mapping) with
        | Svc.Rejected, _ ->
            Stats.op t ~latency_s ~ii:(Stats.penalty_ii problem) ~failed:true ()
        | _, None -> Stats.mismatch t (Printf.sprintf "%s: served without a mapping" q.Svc.id)
        | served, Some m ->
            let m = if plant && i = 0 then corrupt m else m in
            (match span obs "bench:validate" (fun () -> Check.validate problem m) with
            | [] -> ()
            | v :: _ ->
                Stats.mismatch t
                  (Printf.sprintf "%s: returned mapping is invalid: %s" q.Svc.id v));
            if r.Svc.ii <> Some m.Mapping.ii then
              Stats.mismatch t
                (Printf.sprintf "%s: reported II disagrees with the mapping" q.Svc.id);
            (match served with
            | Svc.Repair_hit (Mapper.Route_only | Mapper.Local_replace) ->
                Ctx.incr obs "bench.repair.incremental"
            | _ -> ());
            Ctx.add obs "bench.mii_gap" (m.Mapping.ii - st.mii.(i));
            Stats.op t ~latency_s ~ii:m.Mapping.ii ~failed:false ())
      (List.combine ok resps);
    lo := hi
  done;
  let s1 = Svc.stats svc in
  Ctx.add obs "bench.svc.coalesced" (s1.Svc.coalesced - s0.Svc.coalesced);
  Ctx.add obs "bench.svc.demotions" (s1.Svc.demotions - s0.Svc.demotions);
  Ctx.add obs "bench.svc.evictions" (s1.Svc.evictions - s0.Svc.evictions)

let hot_random = 8
let hot_stream = 4096

let serve_hot =
  {
    name = "serve-hot";
    why =
      "Wire decode -> submit_batch -> encode over duplicates and isomorphic renamings of \
       classes cached during set-up: only the hit path runs, so every cache read shows in p50";
    setup =
      (fun ~scale ~seed ~plant obs ->
        let rng = Rng.create seed in
        let arch = ("mesh", 4, 4) in
        let kernels, n_random, len =
          match scale with
          | Full -> (K.all (), hot_random, hot_stream)
          | Tiny -> ([ K.saxpy (); K.fir4 (); K.absdiff () ], 1, 128)
        in
        let classes = kernel_classes kernels arch @ random_classes n_random arch in
        let cls = Array.of_list classes in
        (* every class equally often, in a seeded order: the seed moves
           the sequence and the renamings, not the work mix *)
        let n = Array.length cls in
        let order = shuffled seed (List.init (len / n * n) (fun i -> i mod n)) in
        let reqs =
          List.mapi
            (fun i c -> (c, draw_request rng cls.(c) ~id:(Printf.sprintf "r%d" i)))
            (Array.to_list order)
        in
        let st = stream_of classes reqs in
        let svc = make_svc obs ~capacity:256 in
        (* warm-up: one cold map per class, so the timed stream only
           hits *)
        let warm =
          List.mapi
            (fun c k ->
              match decode (Wire.req_to_json (req k ~id:(Printf.sprintf "warm%d" c) k.payload)) with
              | Ok q -> q
              | Error msg -> failwith ("benchmark warm-up: " ^ msg))
            classes
        in
        let rec drain qs =
          if qs <> [] then begin
            List.iter
              (fun (r : Svc.response) ->
                if r.Svc.served = Svc.Rejected then
                  failwith ("benchmark warm-up rejected " ^ r.Svc.id))
              (Svc.submit_batch svc (List.filteri (fun i _ -> i < batch) qs));
            drain (List.filteri (fun i _ -> i >= batch) qs)
          end
        in
        drain warm;
        { pass = serve_pass svc st ~plant });
  }

(* Zipf popularity over a fixed ranking of the classes: class of rank r
   gets its share 1/r^s of the requests, rounded to whole requests (at
   least one) by largest remainder.  The quotas are fixed; the seed only
   orders the requests.  With s = 1 the top class alone takes a fifth of
   the traffic, so a seeded ranking or seeded draws would let the seed
   decide how much of the stream misses. *)
let popularity_seed = 2

let zipf_quotas n ~s ~total =
  let rank = Rng.shuffle (Rng.create popularity_seed) (Array.init n Fun.id) in
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let wsum = Array.fold_left ( +. ) 0.0 w in
  let spare = total - n in
  let exact = Array.map (fun x -> float_of_int spare *. x /. wsum) w in
  let q = Array.map (fun x -> 1 + int_of_float x) exact in
  let left = total - Array.fold_left ( + ) 0 q in
  let by_remainder =
    List.sort
      (fun i j -> Float.compare (Float.rem exact.(j) 1.0) (Float.rem exact.(i) 1.0))
      (List.init n Fun.id)
  in
  List.iteri (fun k r -> if k < left then q.(r) <- q.(r) + 1) by_remainder;
  let quota = Array.make n 0 in
  Array.iteri (fun r c -> quota.(c) <- q.(r)) rank;
  quota

let churn_archs = [ ("mesh", 4, 4); ("torus", 4, 4); ("mesh", 5, 5); ("diagonal", 4, 4) ]
let churn_random_archs = [ ("mesh", 4, 4); ("torus", 4, 4) ]
(* the first 16 graphs of the fixed set: graph 22 is one modulo-greedy
   cannot map (each try spends 1-1.7 s before the rejection) *)
let churn_random = 16
let churn_capacity = 32
(* Every pass serves the same 512-request streams, each from an empty
   cache, so passes are the same work (see [Stats.best]); after the
   first few dozen requests the cache is full and every miss evicts.
   The streams are orderings of one request multiset: how often LRU
   misses depends on the order, and a request's latency on the misses
   in its batch, so with one ordering of 16 batches the seed moved p50
   by a tenth; a second ordering averages part of that out. *)
let churn_stream = 512
let churn_orders = 2
let churn_families = [ "saxpy"; "absdiff"; "dot-product"; "matvec2"; "horner"; "running-max" ]
let churn_family_steps = 4

let serve_churn =
  {
    name = "serve-churn";
    why =
      "the same codec path over a Zipf-popular class population well above cache capacity, \
       with nested fault-mask growth families: cold maps, inserts, LRU evictions and repairs";
    setup =
      (fun ~scale ~seed ~plant _obs ->
        let kernels, archs, n_random, random_archs, capacity, len, orders, families =
          match scale with
          | Full ->
              ( K.all (),
                churn_archs,
                churn_random,
                churn_random_archs,
                churn_capacity,
                churn_stream,
                churn_orders,
                churn_families )
          | Tiny ->
              ( [ K.saxpy (); K.absdiff (); K.horner () ],
                [ ("mesh", 4, 4); ("torus", 4, 4) ],
                2,
                [ ("mesh", 4, 4) ],
                3,
                64,
                1,
                [ "saxpy" ] )
        in
        let classes =
          List.concat_map (kernel_classes kernels) archs
          @ List.concat_map (random_classes n_random) random_archs
        in
        let cls = Array.of_list classes in
        (* growth families live on the 4x4 mesh kernel classes; each
           step re-draws more faults from the family's own fault seed,
           so the masks nest *)
        let family_class name =
          let rec find i =
            if i >= Array.length cls then failwith ("benchmark: no class for " ^ name)
            else
              match cls.(i) with
              | { payload = Wire.Kernel k; rows = 4; cols = 4; topology = "mesh"; _ }
                when k = name ->
                  i
              | _ -> find (i + 1)
          in
          find 0
        in
        let fams = Array.of_list (List.map family_class families) in
        (* every class its Zipf quota and every family its steps, in a
           seeded order; a family's steps keep their order *)
        let items =
          let n_fam = Array.length fams * churn_family_steps in
          let quota = zipf_quotas (Array.length cls) ~s:1.0 ~total:(len - n_fam) in
          List.init n_fam (fun k -> `Family (k mod Array.length fams))
          @ List.concat
              (List.mapi (fun c q -> List.init q (fun _ -> `Class c)) (Array.to_list quota))
        in
        let stream order =
          let step = Array.make (Array.length fams) 0 in
          List.mapi
            (fun i item ->
              let id = Printf.sprintf "r%d" i in
              match item with
              | `Family f ->
                  step.(f) <- step.(f) + 1;
                  let c = fams.(f) in
                  (c, req cls.(c) ~id ~n_faults:step.(f) ~fault_seed:(100 + f) cls.(c).payload)
              | `Class c -> (c, req cls.(c) ~id cls.(c).payload))
            (Array.to_list (shuffled (Hashtbl.hash (seed, order)) items))
          |> stream_of classes
        in
        let streams = List.init orders stream in
        {
          pass =
            (fun obs t ->
              List.iteri
                (fun k st -> serve_pass (make_svc obs ~capacity) st ~plant:(plant && k = 0) obs t)
                streams);
        });
  }

let all = [ exact_sweep; compile_sim; serve_hot; serve_churn ]
