(* SAT solver tests: hand instances, brute-force agreement on random
   CNF, pigeonhole unsatisfiability, cardinality encodings. *)

module Solver = Ocgra_sat.Solver
module Enc = Ocgra_sat.Encodings
module Rng = Ocgra_util.Rng

let check = Alcotest.check Alcotest.bool

(* brute-force satisfiability of a CNF over vars 1..n *)
let brute_force n clauses =
  let rec go assignment v =
    if v > n then
      List.for_all
        (fun clause ->
          List.exists
            (fun l ->
              let var = Solver.var_of l in
              if Solver.is_pos l then assignment.(var) else not assignment.(var))
            clause)
        clauses
    else begin
      assignment.(v) <- true;
      go assignment (v + 1)
      ||
      (assignment.(v) <- false;
       go assignment (v + 1))
    end
  in
  go (Array.make (n + 1) false) 1

let solve_clauses n clauses =
  let s = Solver.create () in
  let _vars = Solver.new_vars s n in
  List.iter (Solver.add_clause s) clauses;
  (s, Solver.solve s)

let model_satisfies s clauses =
  List.for_all
    (fun clause ->
      List.exists
        (fun l ->
          let v = Solver.value s (Solver.var_of l) in
          if Solver.is_pos l then v else not v)
        clause)
    clauses

let test_trivial () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Solver.pos v ];
  check "sat" true (Solver.solve s = Solver.Sat);
  check "value" true (Solver.value s v)

let test_unsat_pair () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Solver.pos v ];
  Solver.add_clause s [ Solver.neg v ];
  check "unsat" true (Solver.solve s = Solver.Unsat)

let test_empty_clause () =
  let s = Solver.create () in
  let _ = Solver.new_var s in
  Solver.add_clause s [];
  check "unsat" true (Solver.solve s = Solver.Unsat)

let test_implication_chain () =
  let s = Solver.create () in
  let n = 50 in
  let vars = Array.of_list (Solver.new_vars s n) in
  for i = 0 to n - 2 do
    Solver.add_clause s [ Solver.neg vars.(i); Solver.pos vars.(i + 1) ]
  done;
  Solver.add_clause s [ Solver.pos vars.(0) ];
  check "sat" true (Solver.solve s = Solver.Sat);
  for i = 0 to n - 1 do
    check "chain forced" true (Solver.value s vars.(i))
  done

(* Pigeonhole: n+1 pigeons, n holes -> UNSAT; stresses learning. *)
let test_pigeonhole () =
  let n = 5 in
  let s = Solver.create () in
  let x = Array.init (n + 1) (fun _ -> Array.of_list (Solver.new_vars s n)) in
  for p = 0 to n do
    Solver.add_clause s (List.init n (fun h -> Solver.pos x.(p).(h)))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ Solver.neg x.(p1).(h); Solver.neg x.(p2).(h) ]
      done
    done
  done;
  check "php unsat" true (Solver.solve s = Solver.Unsat)

let test_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Solver.neg a; Solver.pos b ];
  check "sat under a" true (Solver.solve ~assumptions:[ Solver.pos a ] s = Solver.Sat);
  check "b forced" true (Solver.value s b);
  Solver.add_clause s [ Solver.neg b ];
  check "unsat under a" true (Solver.solve ~assumptions:[ Solver.pos a ] s = Solver.Unsat);
  (* instance still satisfiable without the assumption *)
  check "sat without" true (Solver.solve s = Solver.Sat)

(* regression: at_most_k with k < 0 is contradictory by itself — it
   must add the empty clause, not quietly behave like k = 0 (which is
   satisfiable by setting every listed literal false) *)
let test_at_most_k_negative () =
  let s = Solver.create () in
  let vars = Solver.new_vars s 3 in
  Enc.at_most_k s (List.map Solver.pos vars) (-1);
  check "k=-1 unsat" true (Solver.solve s = Solver.Unsat);
  (* even over zero literals: no assignment has a negative true-count *)
  let s = Solver.create () in
  Enc.at_most_k s [] (-2);
  check "k=-2 over [] unsat" true (Solver.solve s = Solver.Unsat);
  (* guarded: the contradiction is confined to the guard group *)
  let s = Solver.create () in
  let g = Solver.pos (Solver.new_var s) in
  let vars = Solver.new_vars s 2 in
  Enc.at_most_k ~guard:g s (List.map Solver.pos vars) (-1);
  check "plain still sat" true (Solver.solve s = Solver.Sat);
  check "unsat under guard" true (Solver.solve ~assumptions:[ g ] s = Solver.Unsat);
  check "instance stays ok" true (Solver.is_ok s)

let test_failed_assumption_core () =
  let s = Solver.create () in
  let a = Solver.pos (Solver.new_var s)
  and b = Solver.pos (Solver.new_var s)
  and c = Solver.pos (Solver.new_var s) in
  Solver.add_clause s [ Solver.negate a; Solver.negate b ];
  check "unsat under a,b,c" true
    (Solver.solve ~assumptions:[ a; b; c ] s = Solver.Unsat);
  let core = Solver.conflict_assumptions s in
  check "core nonempty" true (core <> []);
  check "core within assumptions" true
    (List.for_all (fun l -> List.mem l [ a; b; c ]) core);
  (* the core alone is already inconsistent with the instance *)
  check "core re-solves unsat" true (Solver.solve ~assumptions:core s = Solver.Unsat);
  check "instance usable" true (Solver.is_ok s);
  check "sat dropping b" true (Solver.solve ~assumptions:[ a; c ] s = Solver.Sat)

let test_instance_unsat_empty_core () =
  let s = Solver.create () in
  let a = Solver.pos (Solver.new_var s) in
  Solver.add_clause s [];
  check "unsat" true (Solver.solve ~assumptions:[ a ] s = Solver.Unsat);
  check "empty core" true (Solver.conflict_assumptions s = []);
  check "not ok" true (not (Solver.is_ok s))

(* guard literals make clause groups retractable: activate each group
   by assumption, retire it with a unit against its guard *)
let test_guard_groups () =
  let s = Solver.create () in
  let g1 = Solver.pos (Solver.new_var s) and g2 = Solver.pos (Solver.new_var s) in
  let x = Solver.new_var s in
  Enc.at_least_one ~guard:g1 s [ Solver.pos x ];
  Enc.at_least_one ~guard:g2 s [ Solver.neg x ];
  check "group 1 sat" true (Solver.solve ~assumptions:[ g1 ] s = Solver.Sat);
  check "group 1 forces x" true (Solver.value s x);
  check "group 2 sat" true (Solver.solve ~assumptions:[ g2 ] s = Solver.Sat);
  check "group 2 forces ~x" true (not (Solver.value s x));
  check "both unsat" true (Solver.solve ~assumptions:[ g1; g2 ] s = Solver.Unsat);
  let core = Solver.conflict_assumptions s in
  check "core is both guards" true
    (List.sort compare core = List.sort compare [ g1; g2 ]);
  (* retire group 1; group 2 must still activate on the same instance *)
  Solver.add_clause s [ Solver.negate g1 ];
  check "group 2 after retirement" true (Solver.solve ~assumptions:[ g2 ] s = Solver.Sat);
  check "still ~x" true (not (Solver.value s x));
  Alcotest.(check (list string)) "self_check clean" [] (Solver.self_check s)

(* a tiny reduce_db budget forces learnt-DB reductions on the
   pigeonhole instance; reductions must never break the verdict or the
   reason/watch invariants (reasons of asserted literals are locked) *)
let test_reduce_db_invariants () =
  let n = 5 in
  let s = Solver.create ~reduce_base:10 () in
  let x = Array.init (n + 1) (fun _ -> Array.of_list (Solver.new_vars s n)) in
  for p = 0 to n do
    Solver.add_clause s (List.init n (fun h -> Solver.pos x.(p).(h)))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ Solver.neg x.(p1).(h); Solver.neg x.(p2).(h) ]
      done
    done
  done;
  check "php unsat under reduction" true (Solver.solve s = Solver.Unsat);
  check "reduction actually ran" true (Solver.n_reduces s >= 1);
  Alcotest.(check (list string)) "self_check clean" [] (Solver.self_check s)

(* long solves must keep clause activities finite: the rescale guard
   is exercised by many conflicts on a small budget *)
let test_clause_activity_rescale () =
  let n = 6 in
  let s = Solver.create ~reduce_base:50 () in
  let x = Array.init (n + 1) (fun _ -> Array.of_list (Solver.new_vars s n)) in
  for p = 0 to n do
    Solver.add_clause s (List.init n (fun h -> Solver.pos x.(p).(h)))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ Solver.neg x.(p1).(h); Solver.neg x.(p2).(h) ]
      done
    done
  done;
  check "php6 unsat" true (Solver.solve s = Solver.Unsat);
  let conflicts, _, _ = Solver.stats s in
  check "enough conflicts to matter" true (conflicts > 100);
  Alcotest.(check (list string)) "self_check clean" [] (Solver.self_check s)

(* unknown variables are rejected whatever path the clause would take:
   a tautology, an instance that is already UNSAT, an assumption *)
let raises_invalid f =
  match f () with
  | () -> false
  | exception Invalid_argument _ -> true

let test_tautology_unknown_var () =
  let s = Solver.create () in
  let _ = Solver.new_var s in
  check "tautology over var 999 rejected" true
    (raises_invalid (fun () -> Solver.add_clause s [ Solver.pos 999; Solver.neg 999 ]))

let test_unsat_instance_unknown_var () =
  let s = Solver.create () in
  let _ = Solver.new_var s in
  Solver.add_clause s [];
  check "clause over var 999 rejected after UNSAT" true
    (raises_invalid (fun () -> Solver.add_clause s [ Solver.pos 999 ]))

let test_unsat_instance_unknown_assumption () =
  let s = Solver.create () in
  let _ = Solver.new_var s in
  Solver.add_clause s [];
  check "assumption over var 999 rejected after UNSAT" true
    (raises_invalid (fun () -> ignore (Solver.solve ~assumptions:[ Solver.pos 999 ] s)))

let random_cnf rng ~nvars ~nclauses ~width =
  List.init nclauses (fun _ ->
      List.init (1 + Rng.int rng width) (fun _ ->
          let v = 1 + Rng.int rng nvars in
          if Rng.bool rng then Solver.pos v else Solver.neg v))

let qcheck_agree_with_brute_force =
  QCheck.Test.make ~name:"random CNF agrees with brute force" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 1 10))
    (fun (seed, nvars) ->
      let rng = Rng.create (seed * 7919) in
      let nclauses = 2 + Rng.int rng (4 * nvars) in
      let clauses = random_cnf rng ~nvars ~nclauses ~width:3 in
      let s, result = solve_clauses nvars clauses in
      let expected = brute_force nvars clauses in
      match result with
      | Solver.Sat -> expected && model_satisfies s clauses
      | Solver.Unsat -> not expected
      | Solver.Unknown -> false)

let qcheck_at_most_k =
  QCheck.Test.make ~name:"at_most_k counts correctly" ~count:100
    QCheck.(pair (int_bound 1_000_000) (pair (int_range 1 8) (int_range (-2) 8)))
    (fun (seed, (n, k)) ->
      let rng = Rng.create (seed + 13) in
      let s = Solver.create () in
      let vars = Array.of_list (Solver.new_vars s n) in
      Enc.at_most_k s (Array.to_list (Array.map Solver.pos vars)) k;
      (* force a random subset of size m *)
      let m = Rng.int rng (n + 1) in
      let idx = Rng.sample_indices rng n m in
      Array.iter (fun i -> Solver.add_clause s [ Solver.pos vars.(i) ]) idx;
      let result = Solver.solve s in
      (* k < 0 is contradictory regardless of the forced subset *)
      if k >= 0 && m <= k then result = Solver.Sat else result = Solver.Unsat)

(* failed-assumption-core soundness: whenever a solve is UNSAT under
   assumptions, the reported core is a subset of the assumptions and
   re-solving under exactly the core is again UNSAT *)
let qcheck_failed_core_sound =
  QCheck.Test.make ~name:"failed-assumption core is sound" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 2 10))
    (fun (seed, nvars) ->
      let rng = Rng.create ((seed * 31) + 7) in
      let nclauses = 2 + Rng.int rng (5 * nvars) in
      let clauses = random_cnf rng ~nvars ~nclauses ~width:3 in
      let s = Solver.create () in
      let _ = Solver.new_vars s nvars in
      List.iter (Solver.add_clause s) clauses;
      let n_assump = 1 + Rng.int rng nvars in
      let assumptions =
        Array.to_list
          (Array.map
             (fun i -> if Rng.bool rng then Solver.pos (i + 1) else Solver.neg (i + 1))
             (Rng.sample_indices rng nvars n_assump))
      in
      match Solver.solve ~assumptions s with
      | Solver.Unknown -> false
      | Solver.Sat -> Solver.conflict_assumptions s = []
      | Solver.Unsat ->
          let core = Solver.conflict_assumptions s in
          List.for_all (fun l -> List.mem l assumptions) core
          && (if Solver.is_ok s then core <> [] else true)
          && Solver.solve ~assumptions:core s = Solver.Unsat)

(* incremental reuse: one instance answering a sequence of assumption
   queries must agree with a fresh instance per query *)
let qcheck_incremental_matches_fresh =
  QCheck.Test.make ~name:"incremental solves match fresh solves" ~count:150
    QCheck.(pair (int_bound 1_000_000) (int_range 2 8))
    (fun (seed, nvars) ->
      let rng = Rng.create ((seed * 17) + 3) in
      let nclauses = 2 + Rng.int rng (4 * nvars) in
      let clauses = random_cnf rng ~nvars ~nclauses ~width:3 in
      let shared = Solver.create () in
      let _ = Solver.new_vars shared nvars in
      List.iter (Solver.add_clause shared) clauses;
      let queries =
        List.init 4 (fun _ ->
            let n_assump = Rng.int rng (nvars + 1) in
            Array.to_list
              (Array.map
                 (fun i -> if Rng.bool rng then Solver.pos (i + 1) else Solver.neg (i + 1))
                 (Rng.sample_indices rng nvars n_assump)))
      in
      List.for_all
        (fun assumptions ->
          let fresh = Solver.create () in
          let _ = Solver.new_vars fresh nvars in
          List.iter (Solver.add_clause fresh) clauses;
          Solver.solve ~assumptions shared = Solver.solve ~assumptions fresh)
        queries
      && Solver.self_check shared = [])

(* brute force over bitmask assignments of vars 1..n: a clause is a
   (positive mask, negative mask) pair *)
let brute_force_masks n clauses =
  let masks =
    List.map
      (List.fold_left
         (fun (p, q) l ->
           let bit = 1 lsl (Solver.var_of l - 1) in
           if Solver.is_pos l then (p lor bit, q) else (p, q lor bit))
         (0, 0))
      clauses
  in
  let rec go a =
    a < 1 lsl n
    && (List.for_all (fun (p, q) -> a land p <> 0 || lnot a land q <> 0) masks || go (a + 1))
  in
  go 0

(* stress for clause-store compaction (root simplification at each
   solve that follows new root units) and for conflicts in the middle
   of a watch vector: a tiny learnt budget, random 3-CNF near the
   threshold ratio, and a sequence of assumption solves with clauses
   added in between, each verdict checked against brute force and the
   watch invariants audited after every call.  [reduce_db] itself needs
   a restart (100 conflicts in one solve), which these sizes rarely
   reach; the pigeonhole cases above cover it. *)
let qcheck_compaction_stress =
  QCheck.Test.make ~name:"tiny learnt budget: incremental verdicts and watches" ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_range 8 14))
    (fun (seed, nvars) ->
      let rng = Rng.create ((seed * 13) + 5) in
      let lit_of v = if Rng.bool rng then Solver.pos v else Solver.neg v in
      let clause () =
        Array.to_list (Array.map (fun i -> lit_of (i + 1)) (Rng.sample_indices rng nvars 3))
      in
      let s = Solver.create ~reduce_base:2 () in
      let _ = Solver.new_vars s nvars in
      let clauses = ref [] in
      let add c =
        clauses := c :: !clauses;
        Solver.add_clause s c;
        Solver.self_check s = []
      in
      let healthy = ref (List.for_all add (List.init (nvars * 39 / 10) (fun _ -> clause ()))) in
      for _ = 1 to 4 do
        let assumptions =
          Array.to_list
            (Array.map (fun i -> lit_of (i + 1)) (Rng.sample_indices rng nvars (Rng.int rng 4)))
        in
        let expected =
          brute_force_masks nvars (List.map (fun a -> [ a ]) assumptions @ !clauses)
        in
        let verdict = Solver.solve ~assumptions s in
        healthy :=
          !healthy
          && verdict = (if expected then Solver.Sat else Solver.Unsat)
          && Solver.self_check s = []
          && List.for_all add (List.init (1 + (nvars / 8)) (fun _ -> clause ()))
      done;
      !healthy)

let qcheck_exactly_one =
  QCheck.Test.make ~name:"exactly_one has exactly one true" ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_range 1 15))
    (fun (_seed, n) ->
      let s = Solver.create () in
      let vars = Array.of_list (Solver.new_vars s n) in
      Enc.exactly_one s (Array.to_list (Array.map Solver.pos vars));
      match Solver.solve s with
      | Solver.Sat ->
          let count = Array.fold_left (fun acc v -> if Solver.value s v then acc + 1 else acc) 0 vars in
          count = 1
      | _ -> false)

let () =
  Alcotest.run "sat"
    [
      ( "unit",
        [
          Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "unsat pair" `Quick test_unsat_pair;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "implication chain" `Quick test_implication_chain;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "at_most_k negative k" `Quick test_at_most_k_negative;
          Alcotest.test_case "failed-assumption core" `Quick test_failed_assumption_core;
          Alcotest.test_case "instance-unsat empty core" `Quick test_instance_unsat_empty_core;
          Alcotest.test_case "guard groups" `Quick test_guard_groups;
          Alcotest.test_case "reduce_db invariants" `Quick test_reduce_db_invariants;
          Alcotest.test_case "activity stays finite" `Quick test_clause_activity_rescale;
          Alcotest.test_case "tautology over unknown var" `Quick test_tautology_unknown_var;
          Alcotest.test_case "unknown var after UNSAT" `Quick test_unsat_instance_unknown_var;
          Alcotest.test_case "unknown assumption after UNSAT" `Quick
            test_unsat_instance_unknown_assumption;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_agree_with_brute_force;
          QCheck_alcotest.to_alcotest qcheck_at_most_k;
          QCheck_alcotest.to_alcotest qcheck_exactly_one;
          QCheck_alcotest.to_alcotest qcheck_failed_core_sound;
          QCheck_alcotest.to_alcotest qcheck_incremental_matches_fresh;
          QCheck_alcotest.to_alcotest qcheck_compaction_stress;
        ] );
    ]
