(** JSONL wire format of the mapping service.

    One request per line.  Fields (defaults in brackets):

    {v
    {"id": "r1",                  -- required
     "kernel": "saxpy"            -- kernel by name, XOR
     "dfg": {"nodes": [{"op": "in a", "name": "a"}, ...],
             "edges": [[src, dst, port, dist], ...]},
     "rows": 4, "cols": 4,        -- [4, 4]
     "topology": "mesh",          -- [mesh] mesh|torus|diagonal|one-hop|full
     "hetero": false,             -- [false] adres-like checkerboard
     "rf": 8,                     -- [arch default]
     "faults": [["pe", 3], ["link", 1, 2], ["slot", 2, 1], ["rf", 4, 2]],
     "n_faults": 0, "fault_seed": 1,  -- extra mask injected by seed
     "spatial": false, "max_ii": 8}   -- [temporal, problem default]
    v}

    Responses mirror requests one line each, in input order:

    {v
    {"id": "r1", "status": "ok", "served": "hit|iso-hit|repair-hit|miss",
     "rung": "route-only",        -- repair hits only
     "ii": 2, "certified": true,
     "binding": [[pe, cycle], ...],  -- node id -> place/time
     "note": "..."}
    {"id": "r2", "status": "rejected", "note": "..."}   -- no mapping found
    {"id": "line-7", "status": "error", "error": "..."} -- malformed line
    v}

    Responses deliberately carry no latency fields: a response file is
    byte-identical across worker counts and replays (latencies live in
    the metrics histograms). *)

type payload = Kernel of string | Inline of Ocgra_dfg.Dfg.t

type req = {
  id : string;
  payload : payload;
  rows : int;
  cols : int;
  topology : string;
  hetero : bool;
  rf : int option;
  faults : Ocgra_arch.Fault.t list;
  n_faults : int;
  fault_seed : int;
  spatial : bool;
  max_ii : int option;
}

(** id "", kernel "", 4x4 mesh, homogeneous, no faults, temporal. *)
val default_req : req

(** Render one request line (no trailing newline). *)
val req_to_json : req -> string

(** Parse one request line.  [Error msg] on malformed JSON, unknown
    ops/topologies/fault kinds, missing payload, or non-permutation
    edges — the daemon turns it into an error response, never a
    crash. *)
val parse_req : string -> (req, string) result

(** Materialize: resolve the kernel name through [lookup] (so this
    library stays independent of the workload library), build the
    array, inject the seeded mask on top of the explicit one. *)
val to_request :
  lookup:(string -> (Ocgra_dfg.Dfg.t, string) result) ->
  req ->
  (Svc.request, string) result

(** Render one response line (no trailing newline, no latencies). *)
val response_to_json : Svc.response -> string

(** Error-response line for a malformed input line. *)
val error_to_json : id:string -> string -> string

(** Best-effort id recovery from a malformed line, for the error
    response; falls back to [line-<n>]. *)
val salvage_id : line:int -> string -> string

(** Serve a request stream: one response line per input line, passed
    to [emit] in input order.  Well-formed lines go to
    {!Svc.submit_batch} [batch] at a time; a malformed line (or one
    {!to_request} refuses) gets an {!error_to_json} line in its place
    and is counted in the result. *)
val serve_lines :
  lookup:(string -> (Ocgra_dfg.Dfg.t, string) result) ->
  batch:int ->
  Svc.t ->
  string list ->
  (string -> unit) ->
  int
