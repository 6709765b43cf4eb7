(* JSONL wire codec for the mapping daemon, written and read through
   [Ocgra_obs.Json] (the codec every other JSON producer and consumer
   in the tree shares).  Every parse failure is a value, not an
   exception: the daemon owes a per-line error *response* on malformed
   input, never a crash. *)

module Dfg = Ocgra_dfg.Dfg
module Op = Ocgra_dfg.Op
module Fault = Ocgra_arch.Fault
module Cgra = Ocgra_arch.Cgra
module Topology = Ocgra_arch.Topology
module Mapping = Ocgra_core.Mapping
module Mapper = Ocgra_core.Mapper
module Json = Ocgra_obs.Json

type payload = Kernel of string | Inline of Dfg.t

type req = {
  id : string;
  payload : payload;
  rows : int;
  cols : int;
  topology : string;
  hetero : bool;
  rf : int option;
  faults : Fault.t list;
  n_faults : int;
  fault_seed : int;
  spatial : bool;
  max_ii : int option;
}

let default_req =
  {
    id = "";
    payload = Kernel "";
    rows = 4;
    cols = 4;
    topology = "mesh";
    hetero = false;
    rf = None;
    faults = [];
    n_faults = 0;
    fault_seed = 1;
    spatial = false;
    max_ii = None;
  }

(* ---------- op codec: reuses [Op.to_string]'s vocabulary ---------- *)

let binops =
  [ Op.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Min; Max; Lt; Le; Eq; Ne ]

let op_of_code s =
  match String.index_opt s ' ' with
  | Some i -> (
      let head = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match head with
      | "const" -> (
          match int_of_string_opt arg with
          | Some c -> Ok (Op.Const c)
          | None -> Error (Printf.sprintf "bad const immediate %S" arg))
      | "in" -> Ok (Op.Input arg)
      | "out" -> Ok (Op.Output arg)
      | "load" -> Ok (Op.Load arg)
      | "store" -> Ok (Op.Store arg)
      | _ -> Error (Printf.sprintf "unknown op %S" s))
  | None -> (
      match s with
      | "not" -> Ok Op.Not
      | "neg" -> Ok Op.Neg
      | "select" -> Ok Op.Select
      | "route" -> Ok Op.Route
      | "vote" -> Ok Op.Vote
      | "cmp" -> Ok Op.Cmp
      | "nop" -> Ok Op.Nop
      | _ -> (
          match List.find_opt (fun b -> Op.binop_to_string b = s) binops with
          | Some b -> Ok (Op.Binop b)
          | None -> Error (Printf.sprintf "unknown op %S" s)))

(* ---------- requests ---------- *)

let int = Json.of_int
let ints l = Json.Arr (List.map int l)

let dfg_to_json d =
  Json.Obj
    [
      ( "nodes",
        Json.Arr
          (List.init (Dfg.node_count d) (fun i ->
               let op = ("op", Json.Str (Op.to_string (Dfg.op d i))) in
               match Dfg.name d i with
               | "" -> Json.Obj [ op ]
               | name -> Json.Obj [ op; ("name", Json.Str name) ])) );
      ( "edges",
        Json.Arr
          (List.map
             (fun (e : Dfg.edge) -> ints [ e.Dfg.src; e.Dfg.dst; e.Dfg.port; e.Dfg.dist ])
             (Dfg.edges d)) );
    ]

let fault_to_json f =
  let kind, coords =
    match f with
    | Fault.Pe_down pe -> ("pe", [ pe ])
    | Fault.Link_down (s, d) -> ("link", [ s; d ])
    | Fault.Fu_slot_dead (pe, slot) -> ("slot", [ pe; slot ])
    | Fault.Rf_reduced (pe, lost) -> ("rf", [ pe; lost ])
  in
  Json.Arr (Json.Str kind :: List.map int coords)

(* members at their default are left out, so a minimal request stays
   minimal on the wire *)
let req_to_json r =
  let only cond member = if cond then [ member ] else [] in
  Json.write
    (Json.Obj
       (List.concat
          [
            [ ("id", Json.Str r.id) ];
            [
              (match r.payload with
              | Kernel name -> ("kernel", Json.Str name)
              | Inline d -> ("dfg", dfg_to_json d));
            ];
            [ ("rows", int r.rows); ("cols", int r.cols) ];
            only (r.topology <> "mesh") ("topology", Json.Str r.topology);
            only r.hetero ("hetero", Json.Bool true);
            (match r.rf with Some rf -> [ ("rf", int rf) ] | None -> []);
            only (r.faults <> [])
              ("faults", Json.Arr (List.map fault_to_json (Fault.canonical r.faults)));
            (if r.n_faults > 0 then
               [ ("n_faults", int r.n_faults); ("fault_seed", int r.fault_seed) ]
             else []);
            only r.spatial ("spatial", Json.Bool true);
            (match r.max_ii with Some ii -> [ ("max_ii", int ii) ] | None -> []);
          ]))

let ( let* ) = Result.bind

let parse_fault v =
  match v with
  | Json.Arr (Json.Str kind :: coords) -> (
      let* coords = Json.list Json.int (Json.Arr coords) in
      match (kind, coords) with
      | "pe", [ pe ] -> Ok (Fault.Pe_down pe)
      | "link", [ s; d ] -> Ok (Fault.Link_down (s, d))
      | "slot", [ pe; slot ] -> Ok (Fault.Fu_slot_dead (pe, slot))
      | "rf", [ pe; lost ] -> Ok (Fault.Rf_reduced (pe, lost))
      | k, _ -> Error (Printf.sprintf "fault: unknown kind/arity %S" k))
  | _ -> Error "fault: expected [\"kind\", coords...]"

let parse_dfg v =
  let d = Dfg.create () in
  let node v =
    let* code = Json.field "op" Json.string v in
    let* op = op_of_code code in
    let* name = Json.opt "name" Json.string ~default:"" v in
    ignore (Dfg.add ~name d op);
    Ok ()
  in
  let* _ = Json.field "nodes" (Json.list node) v in
  let n = Dfg.node_count d in
  let edge v =
    match Json.list Json.int v with
    | Ok [ src; dst; port; dist ] ->
        if src < 0 || src >= n || dst < 0 || dst >= n then
          Error (Printf.sprintf "dfg edge %d->%d: node out of range" src dst)
        else Ok (Dfg.add_edge ~dist ~port d ~src ~dst)
    | Ok _ -> Error "dfg edge: expected [src,dst,port,dist]"
    | Error e -> Error e
  in
  let* _ = Json.opt "edges" (Json.list edge) ~default:[] v in
  Ok d

let parse_req line =
  let* obj = Json.parse line in
  let* kvs = match obj with Json.Obj kvs -> Ok kvs | _ -> Error "expected a JSON object" in
  let* id = Json.field "id" Json.string obj in
  let* payload =
    match (List.mem_assoc "kernel" kvs, List.mem_assoc "dfg" kvs) with
    | true, true -> Error "give either \"kernel\" or \"dfg\", not both"
    | true, false -> Result.map (fun k -> Kernel k) (Json.field "kernel" Json.string obj)
    | false, true -> Result.map (fun d -> Inline d) (Json.field "dfg" parse_dfg obj)
    | false, false -> Error "missing payload: \"kernel\" or \"dfg\""
  in
  let some d v = Result.map Option.some (d v) in
  let* rows = Json.opt "rows" Json.int ~default:default_req.rows obj in
  let* cols = Json.opt "cols" Json.int ~default:default_req.cols obj in
  let* topology = Json.opt "topology" Json.string ~default:default_req.topology obj in
  let* hetero = Json.opt "hetero" Json.bool ~default:default_req.hetero obj in
  let* rf = Json.opt "rf" (some Json.int) ~default:None obj in
  let* faults = Json.opt "faults" (Json.list parse_fault) ~default:[] obj in
  let* n_faults = Json.opt "n_faults" Json.int ~default:0 obj in
  let* fault_seed = Json.opt "fault_seed" Json.int ~default:default_req.fault_seed obj in
  let* spatial = Json.opt "spatial" Json.bool ~default:false obj in
  let* max_ii = Json.opt "max_ii" (some Json.int) ~default:None obj in
  if rows < 1 || cols < 1 then Error "rows/cols must be >= 1"
  else
    Ok
      {
        id;
        payload;
        rows;
        cols;
        topology;
        hetero;
        rf;
        faults;
        n_faults;
        fault_seed;
        spatial;
        max_ii;
      }

let to_request ~lookup r =
  let* dfg =
    match r.payload with
    | Inline d -> Ok d
    | Kernel name -> lookup name
  in
  let* topology =
    match Topology.of_string r.topology with
    | t -> Ok t
    | exception Invalid_argument m -> Error m
  in
  let cgra =
    if r.hetero then Cgra.adres_like ?rf_size:r.rf ~topology ~rows:r.rows ~cols:r.cols ()
    else Cgra.uniform ?rf_size:r.rf ~topology ~rows:r.rows ~cols:r.cols ()
  in
  let mask =
    r.faults
    @ (if r.n_faults > 0 then Cgra.inject_faults cgra ~seed:r.fault_seed ~n:r.n_faults
       else [])
  in
  let cgra = if mask = [] then cgra else Cgra.with_faults cgra mask in
  Ok { Svc.id = r.id; dfg; cgra; spatial = r.spatial; max_ii = r.max_ii }

(* ---------- responses ---------- *)

let response_to_json (r : Svc.response) =
  let id = ("id", Json.Str r.Svc.id) and note = ("note", Json.Str r.Svc.note) in
  Json.write
    (Json.Obj
       (match r.Svc.served with
       | Svc.Rejected -> [ id; ("status", Json.Str "rejected"); note ]
       | served ->
           List.concat
             [
               [ id; ("status", Json.Str "ok");
                 ("served", Json.Str (Svc.served_to_string served)) ];
               (match served with
               | Svc.Repair_hit rung -> [ ("rung", Json.Str (Mapper.rung_to_string rung)) ]
               | _ -> []);
               (match r.Svc.mapping with
               | Some m ->
                   [
                     ("ii", int m.Mapping.ii);
                     ("certified", Json.Bool true);
                     ( "binding",
                       Json.Arr
                         (Array.fold_right
                            (fun (pe, cyc) acc -> ints [ pe; cyc ] :: acc)
                            m.Mapping.binding []) );
                   ]
               | None -> []);
               [ note ];
             ]))

let error_to_json ~id msg =
  Json.write
    (Json.Obj [ ("id", Json.Str id); ("status", Json.Str "error"); ("error", Json.Str msg) ])

let salvage_id ~line s =
  match Result.bind (Json.parse s) (Json.field "id" Json.string) with
  | Ok id -> id
  | Error _ -> Printf.sprintf "line-%d" line

(* Classify every line first, then serve the well-formed ones a batch
   at a time; error responses are interleaved back in place, so the
   output has one line per input line, in input order. *)
let serve_lines ~lookup ~batch svc lines emit =
  let errors = ref 0 in
  let error id msg =
    incr errors;
    Error (error_to_json ~id msg)
  in
  let items =
    List.mapi
      (fun i line ->
        match parse_req line with
        | Ok r -> ( match to_request ~lookup r with Ok req -> Ok req | Error msg -> error r.id msg)
        | Error msg -> error (salvage_id ~line:(i + 1) line) msg)
      lines
  in
  let batch = max 1 batch in
  let rec chunks = function
    | [] -> ()
    | rest ->
        let chunk = List.filteri (fun i _ -> i < batch) rest in
        let rest = List.filteri (fun i _ -> i >= batch) rest in
        let resps = ref (Svc.submit_batch svc (List.filter_map Result.to_option chunk)) in
        List.iter
          (function
            | Error line -> emit line
            | Ok _ -> (
                match !resps with
                | r :: tl ->
                    resps := tl;
                    emit (response_to_json r)
                | [] -> ()))
          chunk;
        chunks rest
  in
  chunks items;
  !errors
