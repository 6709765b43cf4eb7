(* Architecture model tests: topologies, capability queries, hop
   tables, and the configuration-word encoding. *)

open Ocgra_arch
module Op = Ocgra_dfg.Op
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------- topologies ---------- *)

let test_mesh_neighbours () =
  (* 3x3 mesh: corner 2 neighbours, edge 3, centre 4 *)
  let n pe = List.length (Topology.neighbours Topology.Mesh ~rows:3 ~cols:3 pe) in
  checki "corner" 2 (n 0);
  checki "edge" 3 (n 1);
  checki "centre" 4 (n 4)

let test_torus_regular () =
  for pe = 0 to 15 do
    checki "torus degree 4" 4 (List.length (Topology.neighbours Topology.Torus ~rows:4 ~cols:4 pe))
  done

let test_diagonal_centre () =
  checki "8 neighbours" 8 (List.length (Topology.neighbours Topology.Diagonal ~rows:3 ~cols:3 4))

let test_full_topology () =
  checki "all others" 15 (List.length (Topology.neighbours Topology.Full ~rows:4 ~cols:4 3))

let qcheck_topology_symmetric =
  QCheck.Test.make ~name:"all topologies are symmetric" ~count:100
    QCheck.(pair (int_range 1 5) (int_range 1 5))
    (fun (rows, cols) ->
      List.for_all
        (fun topo ->
          let npe = rows * cols in
          List.for_all
            (fun p ->
              List.for_all
                (fun q -> List.mem p (Topology.neighbours topo ~rows ~cols q))
                (Topology.neighbours topo ~rows ~cols p))
            (List.init npe Fun.id))
        Topology.all)

let test_topology_string_roundtrip () =
  List.iter
    (fun t ->
      checkb "roundtrip" true (Topology.of_string (Topology.to_string t) = t))
    Topology.all

(* ---------- cgra ---------- *)

let test_hop_table_is_manhattan_on_mesh () =
  let cgra = Cgra.uniform ~rows:4 ~cols:4 () in
  let hop = Cgra.hop_table cgra in
  for i = 0 to 15 do
    for j = 0 to 15 do
      let r1, c1 = Cgra.coords cgra i and r2, c2 = Cgra.coords cgra j in
      checki "manhattan" (abs (r1 - r2) + abs (c1 - c2)) hop.(i).(j)
    done
  done

let test_heterogeneous_capabilities () =
  let cgra = Cgra.adres_like ~rows:4 ~cols:4 () in
  (* loads only in column 0 *)
  checkb "col0 mem" true (Cgra.supports cgra 0 (Op.Load "a"));
  checkb "col1 no mem" false (Cgra.supports cgra 1 (Op.Load "a"));
  (* muls on even cells *)
  checkb "even mul" true (Cgra.supports cgra 2 (Op.Binop Op.Mul));
  checkb "odd no mul" false (Cgra.supports cgra 1 (Op.Binop Op.Mul));
  (* everyone does alu and routing *)
  checkb "alu" true (Cgra.supports cgra 7 (Op.Binop Op.Add));
  checkb "route" true (Cgra.supports cgra 7 Op.Route);
  checki "mem PEs" 4 (List.length (Cgra.capable_pes cgra (Op.Load "x")))

let qcheck_hop_table_metric =
  QCheck.Test.make ~name:"hop table is a metric (triangle inequality)" ~count:60
    QCheck.(pair (int_range 2 4) (int_range 0 4))
    (fun (n, topo_idx) ->
      let topo = List.nth Topology.all topo_idx in
      let cgra = Cgra.uniform ~topology:topo ~rows:n ~cols:n () in
      let hop = Cgra.hop_table cgra in
      let npe = n * n in
      let ok = ref true in
      for i = 0 to npe - 1 do
        if hop.(i).(i) <> 0 then ok := false;
        for j = 0 to npe - 1 do
          if hop.(i).(j) <> hop.(j).(i) then ok := false;
          for k = 0 to npe - 1 do
            if hop.(i).(j) > hop.(i).(k) + hop.(k).(j) then ok := false
          done
        done
      done;
      !ok)

let test_coords_index_roundtrip () =
  let cgra = Cgra.uniform ~rows:3 ~cols:5 () in
  for pe = 0 to 14 do
    let r, c = Cgra.coords cgra pe in
    checki "roundtrip" pe (Cgra.index cgra ~row:r ~col:c)
  done

(* ---------- context words ---------- *)

let random_slot rng =
  let srcs =
    Array.init 3 (fun _ ->
        match Rng.int rng 5 with
        | 0 -> Context.Src_none
        | 1 -> Context.Src_self
        | 2 -> Context.Src_const
        | 3 -> Context.Src_dir (Rng.int rng 12)
        | _ -> Context.Src_rf (Rng.int rng 16))
  in
  {
    Context.opcode = Rng.int rng 26;
    srcs;
    const = Rng.int_in rng (-8_000_000) 8_000_000;
    rf_we = Rng.bool rng;
    rf_waddr = Rng.int rng 16;
  }

let qcheck_context_roundtrip =
  QCheck.Test.make ~name:"configuration word encode/decode roundtrip" ~count:500
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 17) in
      let s = random_slot rng in
      let s' = Context.decode_slot (Context.encode_slot s) in
      s' = s)

let test_opcode_coverage () =
  (* every op kind has a distinct opcode and a printable name *)
  let ops =
    [
      Op.Nop; Op.Const 3; Op.Input "x"; Op.Output "y"; Op.Not; Op.Neg; Op.Select;
      Op.Load "a"; Op.Store "a"; Op.Route; Op.Binop Op.Add; Op.Binop Op.Mul; Op.Binop Op.Ne;
    ]
  in
  let codes = List.map Context.opcode_of_op ops in
  checki "distinct" (List.length codes) (List.length (List.sort_uniq compare codes));
  List.iter (fun c -> checkb "named" true (String.length (Context.opcode_name c) > 0)) codes

let test_dict_interning () =
  let d = Context.Dict.create () in
  let a = Context.Dict.intern d "alpha" in
  let b = Context.Dict.intern d "beta" in
  let a' = Context.Dict.intern d "alpha" in
  checki "stable" a a';
  checkb "distinct" true (a <> b);
  Alcotest.(check string) "name" "beta" (Context.Dict.name d b)

(* ---------- derived view ----------

   Reference copies of the list-based definitions the derived view
   replaced: the topology generators on coordinate tuples, and the
   fault queries as scans of the canonical mask.  The derived view must
   answer exactly as they do, list order included. *)

let ref_topology_neighbours t ~rows ~cols pe =
  let r = pe / cols and c = pe mod cols in
  let inside (r, c) = r >= 0 && r < rows && c >= 0 && c < cols in
  let at (r, c) = (r * cols) + c in
  match t with
  | Topology.Mesh ->
      List.filter inside [ (r - 1, c); (r + 1, c); (r, c - 1); (r, c + 1) ] |> List.map at
  | Topology.Torus ->
      if rows = 1 && cols = 1 then []
      else
        List.sort_uniq compare
          (List.map at
             (List.filter
                (fun rc -> rc <> (r, c))
                [
                  (((r - 1) + rows) mod rows, c);
                  ((r + 1) mod rows, c);
                  (r, ((c - 1) + cols) mod cols);
                  (r, (c + 1) mod cols);
                ]))
  | Topology.Diagonal ->
      List.filter inside
        [
          (r - 1, c); (r + 1, c); (r, c - 1); (r, c + 1);
          (r - 1, c - 1); (r - 1, c + 1); (r + 1, c - 1); (r + 1, c + 1);
        ]
      |> List.map at
  | Topology.One_hop ->
      List.filter inside
        [
          (r - 1, c); (r + 1, c); (r, c - 1); (r, c + 1);
          (r - 2, c); (r + 2, c); (r, c - 2); (r, c + 2);
        ]
      |> List.map at
  | Topology.Full -> List.init (rows * cols) Fun.id |> List.filter (fun q -> q <> pe)

let test_topology_matches_reference () =
  let mismatches = ref [] in
  List.iter
    (fun topo ->
      for rows = 1 to 7 do
        for cols = 1 to 7 do
          for pe = 0 to (rows * cols) - 1 do
            if Topology.neighbours topo ~rows ~cols pe <> ref_topology_neighbours topo ~rows ~cols pe
            then
              mismatches :=
                Printf.sprintf "%s %dx%d pe %d" (Topology.to_string topo) rows cols pe
                :: !mismatches
          done
        done
      done)
    Topology.all;
  Alcotest.(check (list string)) "same lists, same order" [] (List.rev !mismatches)

let ref_pe_ok faults i = not (List.exists (function Fault.Pe_down j -> j = i | _ -> false) faults)

let ref_link_ok faults i j =
  not (List.exists (function Fault.Link_down (a, b) -> a = i && b = j | _ -> false) faults)

let ref_neighbours c i =
  let faults = Cgra.faults c in
  match faults with
  | [] -> Cgra.raw_neighbours c i
  | _ ->
      if not (ref_pe_ok faults i) then []
      else
        List.filter (fun j -> ref_pe_ok faults j && ref_link_ok faults i j) (Cgra.raw_neighbours c i)

let ref_reachable_in_one c i = if ref_pe_ok (Cgra.faults c) i then i :: ref_neighbours c i else []

let ref_effective_rf_size c i =
  let faults = Cgra.faults c in
  if not (ref_pe_ok faults i) then 0
  else begin
    let lost =
      List.fold_left
        (fun acc f -> match f with Fault.Rf_reduced (j, k) when j = i -> acc + k | _ -> acc)
        0 faults
    in
    max 0 ((Cgra.pe c i).Pe.rf_size - lost)
  end

let sample_ops = [ Op.Binop Op.Add; Op.Binop Op.Mul; Op.Load "a"; Op.Output "y"; Op.Route; Op.Const 1 ]

(* Every derived query on every PE, and the same through the reference
   scans. *)
let view c =
  List.init (Cgra.pe_count c) (fun i ->
      ( Cgra.pe_ok c i,
        Cgra.neighbours c i,
        Cgra.reachable_in_one c i,
        Cgra.effective_rf_size c i,
        List.map (Cgra.supports c i) sample_ops ))

let ref_view c =
  List.init (Cgra.pe_count c) (fun i ->
      let ok = ref_pe_ok (Cgra.faults c) i in
      ( ok,
        ref_neighbours c i,
        ref_reachable_in_one c i,
        ref_effective_rf_size c i,
        List.map (fun op -> ok && Pe.supports (Cgra.pe c i) op) sample_ops ))

let agrees_with_reference c = view c = ref_view c

(* A random array and a random mask over it: PE indices drawn from
   [-3, npe + 3] so out-of-range entries occur, links mostly along
   physical wires so they bite, and some entries repeated. *)
let gen_array_and_mask =
  let open QCheck.Gen in
  let* rows = int_range 1 5 and* cols = int_range 1 5 and* topo = oneofl Topology.all in
  let* hetero = bool and* rf_size = int_range (-2) 6 in
  let c =
    if hetero then Cgra.adres_like ~topology:topo ~rf_size ~rows ~cols ()
    else Cgra.uniform ~topology:topo ~rf_size ~rows ~cols ()
  in
  let npe = rows * cols in
  let any_pe = int_range (-3) (npe + 3) in
  let fault =
    let* pe = any_pe in
    frequency
      [
        (2, return (Fault.Pe_down pe));
        ( 3,
          let* dst =
            if pe >= 0 && pe < npe && Cgra.raw_neighbours c pe <> [] then
              frequency [ (4, oneofl (Cgra.raw_neighbours c pe)); (1, any_pe) ]
            else any_pe
          in
          return (Fault.Link_down (pe, dst)) );
        (1, map (fun s -> Fault.Fu_slot_dead (pe, s)) (int_range 0 4));
        (2, map (fun k -> Fault.Rf_reduced (pe, k)) (int_range 0 5));
      ]
  in
  let* faults = list_size (int_range 0 8) fault in
  let* dups = list_size (int_range 0 3) (oneofl (if faults = [] then [ Fault.Pe_down npe ] else faults)) in
  return (c, faults @ dups)

let arb_array_and_mask =
  QCheck.make
    ~print:(fun (c, faults) ->
      Printf.sprintf "%s with [%s]" (Cgra.describe c) (String.concat "; " (List.map Fault.to_string faults)))
    gen_array_and_mask

let qcheck_derived_matches_scans =
  QCheck.Test.make ~name:"derived view matches the fault-list scans" ~count:300 arb_array_and_mask
    (fun (c, faults) -> agrees_with_reference c && agrees_with_reference (Cgra.with_faults c faults))

let qcheck_grow_then_clear =
  QCheck.Test.make ~name:"growing a mask then clearing it restores the healthy view" ~count:200
    arb_array_and_mask (fun (healthy, faults) ->
      let grown =
        List.fold_left
          (fun c f ->
            let c = Cgra.with_faults c (f :: Cgra.faults c) in
            if not (agrees_with_reference c) then QCheck.Test.fail_report "mid-growth disagreement";
            c)
          healthy faults
      in
      let cleared = Cgra.with_faults grown [] in
      Cgra.faults cleared = [] && view cleared = view healthy)

(* ---------- pe ---------- *)

let test_pe_capabilities () =
  let pe = Pe.alu_only in
  checkb "alu" true (Pe.supports pe (Op.Binop Op.Add));
  checkb "no mul" false (Pe.supports pe (Op.Binop Op.Mul));
  checkb "no const without field" false (Pe.supports (Pe.make ~has_const:false [ Op.F_alu ]) (Op.Const 1));
  checkb "route always" true (Pe.supports pe Op.Route)

let () =
  Alcotest.run "arch"
    [
      ( "topology",
        [
          Alcotest.test_case "mesh degrees" `Quick test_mesh_neighbours;
          Alcotest.test_case "torus regular" `Quick test_torus_regular;
          Alcotest.test_case "diagonal centre" `Quick test_diagonal_centre;
          Alcotest.test_case "full" `Quick test_full_topology;
          QCheck_alcotest.to_alcotest qcheck_topology_symmetric;
          Alcotest.test_case "string roundtrip" `Quick test_topology_string_roundtrip;
        ] );
      ( "cgra",
        [
          Alcotest.test_case "mesh hop table" `Quick test_hop_table_is_manhattan_on_mesh;
          Alcotest.test_case "heterogeneous" `Quick test_heterogeneous_capabilities;
          Alcotest.test_case "coords roundtrip" `Quick test_coords_index_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_hop_table_metric;
        ] );
      ( "derived",
        [
          Alcotest.test_case "topology matches list reference" `Quick test_topology_matches_reference;
          QCheck_alcotest.to_alcotest qcheck_derived_matches_scans;
          QCheck_alcotest.to_alcotest qcheck_grow_then_clear;
        ] );
      ( "context",
        [
          QCheck_alcotest.to_alcotest qcheck_context_roundtrip;
          Alcotest.test_case "opcodes" `Quick test_opcode_coverage;
          Alcotest.test_case "dict" `Quick test_dict_interning;
        ] );
      ("pe", [ Alcotest.test_case "capabilities" `Quick test_pe_capabilities ]);
    ]
