(* The CGRA instance: a rows x cols array of PEs joined by a topology.

   This is the "CGRA model" every mapper takes as input (Section II.B
   of the paper): capability queries, neighbour sets and hop-distance
   tables are the only interface the mapping algorithms use, so any
   array describable here is mappable by all of them.

   The fault-masked view (PE health, masked adjacency, one-cycle reach,
   effective RF size) is derived once, when [make] or [with_faults]
   fixes the mask, and the hot queries the router asks millions of
   times per map are array lookups.  [t] is private so no record update
   can change the mask without re-deriving it. *)

open Ocgra_dfg

(* Per PE, indexed 0 .. rows * cols - 1.  A live PE's reach starts
   with the PE itself, so health and the masked neighbour list are both
   read off it. *)
type derived = {
  reach : int list array; (* pe :: fault-masked neighbours in topology order; [] = down *)
  rf : int array; (* effective RF size *)
}

type t = {
  rows : int;
  cols : int;
  topology : Topology.t;
  pes : Pe.t array; (* length rows * cols, row-major *)
  name : string;
  faults : Fault.t list; (* canonical; resources out of service; [] = healthy *)
  derived : derived;
}

(* Fault entries naming PEs outside the array are kept in [faults] (and
   rendered) but mask nothing: no query can ask about those PEs. *)
let derive ~rows ~cols topology pes faults =
  let n = rows * cols in
  let raw i = Topology.neighbours topology ~rows ~cols i in
  match faults with
  | [] ->
      (* the common healthy array, built for every service request *)
      { reach = Array.init n (fun i -> i :: raw i); rf = Array.map (fun (p : Pe.t) -> max 0 p.rf_size) pes }
  | _ :: _ ->
      let inside i = i >= 0 && i < n in
      let up = Array.make n true and lost = Array.make n 0 and cut = Array.make n [] in
      List.iter
        (function
          | Fault.Pe_down i -> if inside i then up.(i) <- false
          | Fault.Link_down (a, b) -> if inside a then cut.(a) <- b :: cut.(a)
          | Fault.Rf_reduced (i, k) -> if inside i then lost.(i) <- lost.(i) + k
          | Fault.Fu_slot_dead _ -> ())
        faults;
      let reach i =
        if up.(i) then i :: List.filter (fun j -> up.(j) && not (List.mem j cut.(i))) (raw i) else []
      in
      {
        reach = Array.init n reach;
        rf = Array.init n (fun i -> if up.(i) then max 0 (pes.(i).Pe.rf_size - lost.(i)) else 0);
      }

let make ?(name = "cgra") ?(faults = []) ~rows ~cols ~topology pes =
  if Array.length pes <> rows * cols then invalid_arg "Cgra.make: wrong PE count";
  let faults = Fault.canonical faults in
  { rows; cols; topology; pes; name; faults; derived = derive ~rows ~cols topology pes faults }

let pe_count t = t.rows * t.cols
let pe t i = t.pes.(i)
let coords t i = (i / t.cols, i mod t.cols)
let index t ~row ~col = (row * t.cols) + col

(* ---------- Fault queries ---------- *)

let faults t = t.faults
let with_faults t faults = make ~name:t.name ~faults ~rows:t.rows ~cols:t.cols ~topology:t.topology t.pes

let pe_ok t i = match t.derived.reach.(i) with [] -> false | _ :: _ -> true

let link_ok t i j =
  not (List.exists (function Fault.Link_down (a, b) -> a = i && b = j | _ -> false) t.faults)

(* Slot [s] of the modulo config memory: dead slots only bite mappings
   whose II exceeds the slot index. *)
let slot_ok t ~pe ~ii ~time =
  let s = ((time mod ii) + ii) mod ii in
  not (List.exists (function Fault.Fu_slot_dead (q, d) -> q = pe && d = s | _ -> false) t.faults)

let dead_slots t ~pe =
  List.filter_map
    (function Fault.Fu_slot_dead (q, s) when q = pe -> Some s | _ -> None)
    t.faults

let effective_rf_size t i = t.derived.rf.(i)

(* Topology adjacency before fault masking: the physical wires. *)
let raw_neighbours t i = Topology.neighbours t.topology ~rows:t.rows ~cols:t.cols i

(* Fault-masked adjacency: the wires a mapping may actually use.  A
   downed endpoint removes all its links, so hop tables, routing and
   validation all avoid faulted resources natively. *)
let neighbours t i = match t.derived.reach.(i) with _ :: ns -> ns | [] -> []

(* PEs a value on [i] can reach in one cycle, including staying put. *)
let reachable_in_one t i = t.derived.reach.(i)

let supports t i op = pe_ok t i && Pe.supports t.pes.(i) op

(* Seeded random fault generator: draws up to [n] distinct faults
   (fewer only when the array runs out of distinct resources).  Pure in
   [seed], so degraded-array experiments are reproducible. *)
let inject_faults t ~seed ~n =
  let rng = Ocgra_util.Rng.create (0x0FA17 lxor seed) in
  let npe = pe_count t in
  let picked = ref [] in
  let attempts = ref 0 in
  let max_attempts = (32 * max 1 n) + 64 in
  while List.length !picked < n && !attempts < max_attempts do
    incr attempts;
    let pe = Ocgra_util.Rng.int rng npe in
    let candidate =
      match Ocgra_util.Rng.int rng 4 with
      | 0 -> Some (Fault.Pe_down pe)
      | 1 -> (
          match raw_neighbours t pe with
          | [] -> None
          | ns -> Some (Fault.Link_down (pe, Ocgra_util.Rng.choose_list rng ns)))
      | 2 -> Some (Fault.Fu_slot_dead (pe, Ocgra_util.Rng.int rng 4))
      | _ ->
          let rf = t.pes.(pe).Pe.rf_size in
          if rf <= 0 then None
          else Some (Fault.Rf_reduced (pe, 1 + Ocgra_util.Rng.int rng rf))
    in
    match candidate with
    | Some f when not (List.exists (Fault.equal f) !picked) -> picked := f :: !picked
    | _ -> ()
  done;
  List.rev !picked

(* All directed physical wires, for the transient-event generator. *)
let raw_links t =
  List.concat_map
    (fun i -> List.map (fun j -> (i, j)) (raw_neighbours t i))
    (List.init (pe_count t) Fun.id)

(* Seeded Monte-Carlo transient bombardment over [horizon] cycles of
   this array; the arch-level convenience over [Fault.monte_carlo]. *)
let inject_transients t ~seed ~horizon ~rate =
  Fault.monte_carlo ~pe_count:(pe_count t) ~links:(raw_links t) ~horizon ~rate
    ~seed:(0x7A4E lxor seed)

let capable_pes t op =
  List.filter (fun i -> supports t i op) (List.init (pe_count t) Fun.id)

let connectivity_graph t =
  let g = Ocgra_graph.Digraph.create ~capacity:(pe_count t) () in
  ignore (Ocgra_graph.Digraph.add_nodes g (pe_count t));
  for i = 0 to pe_count t - 1 do
    List.iter (fun j -> Ocgra_graph.Digraph.add_edge g i j) (neighbours t i)
  done;
  g

(* hops.(i).(j) = minimum number of cycles to move a value from PE i to
   PE j (0 on the diagonal). *)
let hop_table t = Ocgra_graph.Paths.all_pairs_hops (connectivity_graph t)

(* ---------- Standard instances ---------- *)

(* Homogeneous mesh where every cell does everything: the "simple CGRA"
   of Fig. 2. *)
let uniform ?(topology = Topology.Mesh) ?(rf_size = 4) ~rows ~cols () =
  let pe = Pe.make ~rf_size [ Op.F_alu; Op.F_mul; Op.F_mem; Op.F_io ] in
  make
    ~name:(Printf.sprintf "uniform-%dx%d-%s" rows cols (Topology.to_string topology))
    ~rows ~cols ~topology
    (Array.make (rows * cols) pe)

(* ADRES-flavoured heterogeneous array: memory and I/O restricted to the
   first column, multipliers on even cells only. *)
let adres_like ?(topology = Topology.Mesh) ?(rf_size = 8) ~rows ~cols () =
  let pes =
    Array.init (rows * cols) (fun i ->
        let col = i mod cols in
        let base = [ Op.F_alu ] in
        let base = if i mod 2 = 0 then Op.F_mul :: base else base in
        let base = if col = 0 then Op.F_mem :: Op.F_io :: base else base in
        Pe.make ~rf_size base)
  in
  make
    ~name:(Printf.sprintf "adres-%dx%d-%s" rows cols (Topology.to_string topology))
    ~rows ~cols ~topology pes

(* Single full-featured PE: the "CPU-like" end of the Fig. 1 spectrum
   (pure temporal computation). *)
let single_pe ?(rf_size = 16) () =
  make ~name:"single-pe" ~rows:1 ~cols:1 ~topology:Topology.Mesh
    (Array.make 1 (Pe.make ~rf_size [ Op.F_alu; Op.F_mul; Op.F_mem; Op.F_io ]))

let describe t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %dx%d %s\n" t.name t.rows t.cols (Topology.to_string t.topology));
  if t.faults <> [] then
    Buffer.add_string buf (Printf.sprintf "  faults: %s\n" (Fault.list_to_string t.faults));
  for r = 0 to t.rows - 1 do
    for c = 0 to t.cols - 1 do
      let i = index t ~row:r ~col:c in
      Buffer.add_string buf (Printf.sprintf "  PE(%d,%d) %s\n" r c (Pe.to_string t.pes.(i)))
    done
  done;
  Buffer.contents buf
