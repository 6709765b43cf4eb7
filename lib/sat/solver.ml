(* CDCL SAT solver.

   A conflict-driven clause-learning solver in the MiniSat lineage:
   two-watched-literal propagation, VSIDS decision heap, first-UIP
   conflict analysis with backjumping, phase saving and Luby restarts.
   The SAT-based mapper ([17] in the survey) and the difference-logic
   SMT layer are built on this solver.

   The solver is *incremental*: clauses can be added between [solve]
   calls, and [solve ~assumptions] answers relative to a conjunction of
   assumption literals without damaging the instance.  Assumptions are
   decided first, one per decision level, so the decision level itself
   is the assumption cursor — establishing them costs O(1) per decision
   instead of a scan of the assumption list.  When an assumption is
   contradicted, [analyze_final] walks the implication graph back to
   the assumption decisions and records a *failed-assumption core*
   (retrievable with [conflict_assumptions]): a subset of the
   assumptions that is already inconsistent with the instance.  An
   empty core after Unsat means the instance itself is unsatisfiable.

   Learnt-clause management: every learnt clause carries its LBD
   ("literal blocks distance" — the number of distinct decision levels
   among its literals at analysis time).  At restart boundaries the
   solver periodically runs [reduce_db], dropping high-LBD, low-activity
   learnt clauses while always keeping glue clauses (LBD <= 2) and
   locked clauses (those acting as the reason of an assigned literal),
   and [simplify], which deletes root-satisfied clauses — including
   clauses retired by a fixed activation literal — and strips
   root-falsified literals from the rest.  Both rebuild the watch lists
   over a compacted clause store, so retired incremental clause groups
   actually release their memory.

   Literal encoding: variable v (1-based) gives literals 2v (positive)
   and 2v+1 (negative); [negate l = l lxor 1].  Values are stored per
   literal, so reading one is a single load.

   Watch layout: each literal owns a growable [int array] of clause
   indices plus a count.  The vector is a stack whose top is the front
   of the visit order: [watch] pushes, and [propagate] copies the
   vector of the falsified literal into one persistent scratch buffer,
   walks it from the top and writes the watches it keeps back in visit
   order, so the last one kept is visited first next time.  On a
   conflict the unvisited rest goes on top, in its old order.  That is
   the order the earlier cons-list watches had, and it decides which
   unit or conflict propagation meets first, so keeping it keeps the
   search path (every decision, conflict and propagation count) of
   the committed sweep snapshots.  Propagation and conflict analysis
   allocate nothing but the learnt clause: they work in persistent
   buffers. *)

type lit = int

let pos v = 2 * v
let neg v = (2 * v) + 1
let negate l = l lxor 1
let var_of l = l lsr 1
let is_pos l = l land 1 = 0

let lit_to_string l = Printf.sprintf "%s%d" (if is_pos l then "" else "-") (var_of l)

type result = Sat | Unsat | Unknown

(* Literal values: 0 = unassigned, 1 = true, 2 = false. *)
let v_undef = 0
let v_true = 1
let v_false = 2

type clause = {
  mutable lits : int array;
  mutable activity : float;
  mutable lbd : int; (* distinct decision levels at analysis time; 0 for problem clauses *)
  learnt : bool;
}

type t = {
  mutable nvars : int;
  mutable clauses : clause array; (* growable store *)
  mutable n_clauses : int;
  mutable n_learnts : int; (* learnt clauses currently in the store *)
  mutable watches : int array array; (* literal -> clause indices watching it, top = next visited *)
  mutable watch_n : int array; (* literal -> live entries in its watch vector *)
  mutable ws_buf : int array; (* propagate scratch: the watch vector being visited *)
  mutable vals : int array; (* literal -> v_undef / v_true / v_false *)
  mutable level : int array; (* var -> decision level *)
  mutable reason : int array; (* var -> clause index or -1 *)
  mutable activity : float array; (* var -> VSIDS score *)
  mutable phase : bool array; (* var -> saved phase *)
  mutable trail : int array; (* assigned literals in order *)
  mutable trail_size : int;
  mutable trail_lim : int array; (* decision level -> trail position *)
  mutable n_levels : int;
  mutable qhead : int;
  (* decision heap (max-heap on activity) *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array; (* var -> position in heap, -1 if absent *)
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool; (* false once trivially UNSAT *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  (* persistent first-UIP scratch: [seen] is cleared through the vars
     listed in [clear_buf] after each analysis; [learnt_buf] collects
     the learnt literals; [lvl_stamp] (level -> stamp) counts distinct
     levels for the LBD *)
  mutable seen : bool array;
  mutable clear_buf : int array;
  mutable learnt_buf : int array;
  mutable lvl_stamp : int array;
  mutable stamp : int;
  mutable conflict_assumps : lit list; (* failed-assumption core of the last Unsat *)
  (* learnt-DB reduction schedule *)
  mutable max_learnts : int;
  mutable reduces : int;
  mutable simp_assigns : int; (* root trail size at the last simplify *)
  (* convergence introspection, tallied per conflict; the solver keeps
     plain int arrays (no observability dependency down here) and the
     mapper wrappers flush deltas into Obs histograms *)
  mutable restarts : int;
  lbd_counts : int array; (* index = learnt-clause LBD, tail bucket at 63 *)
  trail_counts : int array; (* index = floor(log2 trail_size) at conflict *)
  ppd_counts : int array; (* index = floor(log2 propagations-per-decision) *)
  mutable ppd_props : int; (* propagation/decision marks of the last conflict *)
  mutable ppd_decs : int;
}

let create ?(reduce_base = 4000) () =
  {
    nvars = 0;
    clauses = Array.make 16 { lits = [||]; activity = 0.0; lbd = 0; learnt = false };
    n_clauses = 0;
    n_learnts = 0;
    watches = Array.make 16 [||];
    watch_n = Array.make 16 0;
    ws_buf = Array.make 16 0;
    vals = Array.make 16 v_undef;
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = Array.make 16 0;
    n_levels = 0;
    qhead = 0;
    heap = Array.make 16 0;
    heap_size = 0;
    heap_pos = Array.make 16 (-1);
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    seen = Array.make 16 false;
    clear_buf = Array.make 16 0;
    learnt_buf = Array.make 16 0;
    lvl_stamp = Array.make 17 0;
    stamp = 0;
    conflict_assumps = [];
    max_learnts = max 16 reduce_base;
    reduces = 0;
    simp_assigns = -1;
    restarts = 0;
    lbd_counts = Array.make 64 0;
    trail_counts = Array.make 64 0;
    ppd_counts = Array.make 64 0;
    ppd_props = 0;
    ppd_decs = 0;
  }

let n_vars t = t.nvars
let is_ok t = t.ok
let conflict_assumptions t = t.conflict_assumps

(* ---------- dynamic arrays ---------- *)

let grow_int_array a n default =
  let a' = Array.make n default in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let grow_float_array a n =
  let a' = Array.make n 0.0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let grow_bool_array a n =
  let a' = Array.make n false in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* ---------- decision heap (max-heap on var activity) ---------- *)

let heap_less t a b = t.activity.(a) > t.activity.(b)

let heap_swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.heap_pos.(b) <- i;
  t.heap_pos.(a) <- j

let rec heap_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less t t.heap.(i) t.heap.(p) then begin
      heap_swap t i p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_size && heap_less t t.heap.(l) t.heap.(!best) then best := l;
  if r < t.heap_size && heap_less t t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap t i !best;
    heap_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    if t.heap_size = Array.length t.heap then t.heap <- grow_int_array t.heap (2 * t.heap_size) 0;
    t.heap.(t.heap_size) <- v;
    t.heap_pos.(v) <- t.heap_size;
    t.heap_size <- t.heap_size + 1;
    heap_up t (t.heap_size - 1)
  end

let heap_pop t =
  if t.heap_size = 0 then -1
  else begin
    let v = t.heap.(0) in
    t.heap_size <- t.heap_size - 1;
    t.heap_pos.(v) <- -1;
    if t.heap_size > 0 then begin
      t.heap.(0) <- t.heap.(t.heap_size);
      t.heap_pos.(t.heap.(0)) <- 0;
      heap_down t 0
    end;
    v
  end

let heap_update t v = if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)

(* ---------- variables ---------- *)

let new_var t =
  let v = t.nvars + 1 in
  t.nvars <- v;
  let needed_vars = v + 1 in
  if needed_vars > Array.length t.level then begin
    let n = max (2 * Array.length t.level) needed_vars in
    t.level <- grow_int_array t.level n 0;
    t.reason <- grow_int_array t.reason n (-1);
    t.activity <- grow_float_array t.activity n;
    t.phase <- grow_bool_array t.phase n;
    t.heap_pos <- grow_int_array t.heap_pos n (-1);
    t.trail <- grow_int_array t.trail n 0;
    t.seen <- grow_bool_array t.seen n;
    t.clear_buf <- grow_int_array t.clear_buf n 0;
    t.learnt_buf <- grow_int_array t.learnt_buf n 0
  end;
  let needed_lits = (2 * v) + 2 in
  if needed_lits > Array.length t.watches then begin
    let n = max (2 * Array.length t.watches) needed_lits in
    let w = Array.make n [||] in
    Array.blit t.watches 0 w 0 (Array.length t.watches);
    t.watches <- w;
    t.watch_n <- grow_int_array t.watch_n n 0;
    t.vals <- grow_int_array t.vals n v_undef
  end;
  t.heap_pos.(v) <- -1;
  heap_insert t v;
  v

let new_vars t k = List.init k (fun _ -> new_var t)

(* literal value: v_true/v_false/v_undef *)
let lit_value t l = t.vals.(l)

let value t v =
  if v <= 0 || v > t.nvars then invalid_arg "Sat.value: bad variable";
  t.vals.(pos v) = v_true

let check_lit t fn l = if var_of l < 1 || var_of l > t.nvars then invalid_arg fn

(* ---------- clause store ---------- *)

let push_clause t c =
  if t.n_clauses = Array.length t.clauses then begin
    let bigger = Array.make (2 * t.n_clauses) c in
    Array.blit t.clauses 0 bigger 0 t.n_clauses;
    t.clauses <- bigger
  end;
  t.clauses.(t.n_clauses) <- c;
  t.n_clauses <- t.n_clauses + 1;
  if c.learnt then t.n_learnts <- t.n_learnts + 1;
  t.n_clauses - 1

(* push onto the watch vector of [l]: the new entry is visited first *)
let watch t l ci =
  let n = t.watch_n.(l) in
  if n = Array.length t.watches.(l) then t.watches.(l) <- grow_int_array t.watches.(l) (max 4 (2 * n)) 0;
  t.watches.(l).(n) <- ci;
  t.watch_n.(l) <- n + 1

(* ---------- assignment / trail ---------- *)

let decision_level t = t.n_levels

let enqueue t l reason =
  let v = var_of l in
  t.vals.(l) <- v_true;
  t.vals.(negate l) <- v_false;
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.phase.(v) <- is_pos l;
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let new_decision_level t =
  if t.n_levels = Array.length t.trail_lim then begin
    t.trail_lim <- grow_int_array t.trail_lim (2 * t.n_levels) 0;
    t.lvl_stamp <- grow_int_array t.lvl_stamp ((2 * t.n_levels) + 1) 0
  end;
  t.trail_lim.(t.n_levels) <- t.trail_size;
  t.n_levels <- t.n_levels + 1

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto bound do
      let l = t.trail.(i) in
      let v = var_of l in
      t.vals.(l) <- v_undef;
      t.vals.(negate l) <- v_undef;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    t.trail_size <- bound;
    t.qhead <- bound;
    t.n_levels <- lvl
  end

(* ---------- propagation ---------- *)

(* Returns conflicting clause index, or -1.  The watch vector of the
   falsified literal is copied to [ws_buf] and visited from the top;
   kept watches are written back from the bottom in visit order and, on
   a conflict, the unvisited rest is written after them (see the
   header).  Moved watches always go to other literals, so the vector
   being rewritten never grows under the loop. *)
let propagate t =
  (* neither array is reallocated during propagation *)
  let vals = t.vals and clauses = t.clauses in
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < t.trail_size do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let falsified = negate p in
    let n = t.watch_n.(falsified) in
    if n > Array.length t.ws_buf then t.ws_buf <- Array.make (max n (2 * Array.length t.ws_buf)) 0;
    let ws = t.ws_buf and kept = t.watches.(falsified) in
    (* a plain loop: cheaper than the [Array.blit] call on the short
       vectors typical here *)
    for k = 0 to n - 1 do
      ws.(k) <- kept.(k)
    done;
    let j = ref 0 in
    let i = ref (n - 1) in
    while !i >= 0 do
      let ci = ws.(!i) in
      decr i;
      let lits = clauses.(ci).lits in
      (* ensure falsified literal is at position 1 *)
      if lits.(0) = falsified then begin
        lits.(0) <- lits.(1);
        lits.(1) <- falsified
      end;
      if vals.(lits.(0)) = v_true then begin
        (* clause already satisfied: keep watching *)
        kept.(!j) <- ci;
        incr j
      end
      else begin
        (* find a new literal to watch *)
        let len = Array.length lits in
        let k = ref 2 in
        while !k < len && vals.(lits.(!k)) = v_false do
          incr k
        done;
        if !k < len then begin
          lits.(1) <- lits.(!k);
          lits.(!k) <- falsified;
          watch t lits.(1) ci
        end
        else begin
          kept.(!j) <- ci;
          incr j;
          if vals.(lits.(0)) = v_undef then (* unit clause *) enqueue t lits.(0) ci
          else begin
            (* conflict: keep the unvisited watches, in their order *)
            conflict := ci;
            for k = 0 to !i do
              kept.(!j) <- ws.(k);
              incr j
            done;
            i := -1
          end
        end
      end
    done;
    t.watch_n.(falsified) <- !j
  done;
  !conflict

(* ---------- activity ---------- *)

let var_decay = 0.95
let cla_decay = 0.999

let bump_var t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 1 to t.nvars do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  heap_update t v

(* Clause activities need the same rescale guard as variables:
   [cla_inc] grows by 1/cla_decay every conflict, so an unguarded sum
   reaches infinity (then NaN on further arithmetic) on long solves,
   which would scramble the activity tie-break of [reduce_db]. *)
let bump_clause t (c : clause) =
  c.activity <- c.activity +. t.cla_inc;
  if c.activity > 1e20 then begin
    for i = 0 to t.n_clauses - 1 do
      let c = t.clauses.(i) in
      if c.learnt then c.activity <- c.activity *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let decay_activities t =
  t.var_inc <- t.var_inc /. var_decay;
  t.cla_inc <- t.cla_inc /. cla_decay

(* ---------- conflict analysis (first UIP) ---------- *)

(* Returns (learnt clause, backjump level, lbd).  The learnt clause is
   the asserting literal followed by the other literals in reverse
   discovery order.  The [seen] scratch is persistent; every var marked
   here is unmarked before returning. *)
let analyze t confl =
  let seen = t.seen in
  let n_learnt = ref 1 in (* slot 0 is reserved for the asserting literal *)
  let n_clear = ref 0 in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (t.trail_size - 1) in
  let backtrack_level = ref 0 in
  let continue_loop = ref true in
  while !continue_loop do
    let c = t.clauses.(!confl) in
    if c.learnt then bump_clause t c;
    let start = if !p = -1 then 0 else 1 in
    for i = start to Array.length c.lits - 1 do
      let q = c.lits.(i) in
      let v = var_of q in
      if (not seen.(v)) && t.level.(v) > 0 then begin
        seen.(v) <- true;
        t.clear_buf.(!n_clear) <- v;
        incr n_clear;
        bump_var t v;
        if t.level.(v) >= decision_level t then incr counter
        else begin
          t.learnt_buf.(!n_learnt) <- q;
          incr n_learnt;
          backtrack_level := max !backtrack_level t.level.(v)
        end
      end
    done;
    (* pick next literal to look at from the trail *)
    while not seen.(var_of t.trail.(!index)) do
      decr index
    done;
    let pl = t.trail.(!index) in
    p := pl;
    decr index;
    decr counter;
    seen.(var_of pl) <- false;
    if !counter > 0 then
      (* a seen literal above level 0 on the trail inside the current
         level always has a reason unless it is the decision; the
         decision is reached exactly when counter = 0 *)
      confl := t.reason.(var_of pl)
    else continue_loop := false
  done;
  let n = !n_learnt in
  let learnt = Array.make n (negate !p) in
  for i = 1 to n - 1 do
    learnt.(i) <- t.learnt_buf.(n - i)
  done;
  (* LBD: distinct decision levels among the learnt literals.  The
     asserting literal sits at the (current) conflict level; the rest
     keep their levels across the backjump. *)
  t.stamp <- t.stamp + 1;
  t.lvl_stamp.(decision_level t) <- t.stamp;
  let lbd = ref 1 in
  for i = 1 to n - 1 do
    let lv = t.level.(var_of learnt.(i)) in
    if t.lvl_stamp.(lv) <> t.stamp then begin
      t.lvl_stamp.(lv) <- t.stamp;
      incr lbd
    end
  done;
  for i = 0 to !n_clear - 1 do
    seen.(t.clear_buf.(i)) <- false
  done;
  (learnt, !backtrack_level, !lbd)

(* Failed-assumption core: called when assumption [a] is found false
   under the current (all-assumption) decision prefix.  Walks the
   implication graph from ~a back through reasons; every assumption
   decision reached joins the core.  The resulting set of assumption
   literals is inconsistent with the instance on its own. *)
let analyze_final t a =
  if decision_level t = 0 then [ a ]
  else begin
    let seen = t.seen in
    let core = ref [ a ] in
    let to_clear = ref [ var_of a ] in
    seen.(var_of a) <- true;
    let bottom = t.trail_lim.(0) in
    for i = t.trail_size - 1 downto bottom do
      let l = t.trail.(i) in
      let v = var_of l in
      if seen.(v) then
        if t.reason.(v) < 0 then begin
          (* a decision: inside the assumption prefix every decision is
             an assumption literal, enqueued verbatim *)
          if t.level.(v) > 0 && l <> a then core := l :: !core
        end
        else begin
          let c = t.clauses.(t.reason.(v)) in
          Array.iter
            (fun q ->
              let vq = var_of q in
              if vq <> v && (not seen.(vq)) && t.level.(vq) > 0 then begin
                seen.(vq) <- true;
                to_clear := vq :: !to_clear
              end)
            c.lits
        end
    done;
    List.iter (fun v -> seen.(v) <- false) !to_clear;
    !core
  end

(* ---------- clause addition ---------- *)

let root_true t l = lit_value t l = v_true && t.level.(var_of l) = 0
let root_false t l = lit_value t l = v_false && t.level.(var_of l) = 0

let add_clause t lits =
  List.iter (check_lit t "Sat.add_clause: unknown variable") lits;
  if t.ok then begin
    (* clauses are added at the root level; drop any leftover
       assignment trail from a previous solve call *)
    cancel_until t 0;
    (* simplify: drop duplicates and false lits at level 0; detect taut *)
    let lits = List.sort_uniq compare lits in
    let taut = List.exists (fun l -> List.mem (negate l) lits) lits in
    if not taut then begin
      let lits = List.filter (fun l -> not (root_false t l)) lits in
      if not (List.exists (root_true t) lits) then
        match lits with
        | [] -> t.ok <- false
        | [ l ] ->
            if lit_value t l = v_undef then begin
              enqueue t l (-1);
              if propagate t >= 0 then t.ok <- false
            end
            else if lit_value t l = v_false then t.ok <- false
        | _ ->
            let arr = Array.of_list lits in
            let ci = push_clause t { lits = arr; activity = 0.0; lbd = 0; learnt = false } in
            watch t arr.(0) ci;
            watch t arr.(1) ci
    end
  end

let add_learnt t lits lbd =
  match Array.length lits with
  | 1 ->
      enqueue t lits.(0) (-1)
  | _ ->
      (* position a literal of the backtrack level at index 1 *)
      let max_i = ref 1 in
      for i = 2 to Array.length lits - 1 do
        if t.level.(var_of lits.(i)) > t.level.(var_of lits.(!max_i)) then max_i := i
      done;
      let tmp = lits.(1) in
      lits.(1) <- lits.(!max_i);
      lits.(!max_i) <- tmp;
      let ci = push_clause t { lits; activity = t.cla_inc; lbd; learnt = true } in
      watch t lits.(0) ci;
      watch t lits.(1) ci;
      enqueue t lits.(0) ci

(* ---------- clause-DB maintenance (root level only) ---------- *)

(* Both entry points require decision level 0 with propagation
   complete; both compact the clause store and rebuild the watch
   lists, remapping reason indices through the compaction map. *)

let compact t keep =
  let map = Array.make (max 1 t.n_clauses) (-1) in
  let j = ref 0 in
  let learnts = ref 0 in
  for i = 0 to t.n_clauses - 1 do
    if keep.(i) then begin
      map.(i) <- !j;
      t.clauses.(!j) <- t.clauses.(i);
      if t.clauses.(!j).learnt then incr learnts;
      incr j
    end
  done;
  t.n_clauses <- !j;
  t.n_learnts <- !learnts;
  for v = 1 to t.nvars do
    let r = t.reason.(v) in
    if r >= 0 then t.reason.(v) <- map.(r)
  done;
  Array.fill t.watch_n 0 (Array.length t.watch_n) 0;
  for ci = 0 to t.n_clauses - 1 do
    let lits = t.clauses.(ci).lits in
    watch t lits.(0) ci;
    watch t lits.(1) ci
  done

(* A clause is locked while it is the reason of its asserted first
   literal: reduction must never drop it or analysis would chase a
   dangling reason. *)
let locked t ci =
  let c = t.clauses.(ci) in
  Array.length c.lits > 0
  && lit_value t c.lits.(0) <> v_undef
  && t.reason.(var_of c.lits.(0)) = ci

(* Root-level simplification: delete clauses satisfied at level 0 —
   the mechanism that reclaims clause groups retired by a fixed
   activation literal — and strip root-false literals elsewhere.
   Reasons of root-assigned variables are detached first (conflict
   analysis never crosses level 0), so a root-satisfied reason clause
   can be deleted too. *)
let simplify t =
  if t.ok && decision_level t = 0 && t.qhead = t.trail_size then begin
    for i = 0 to t.trail_size - 1 do
      t.reason.(var_of t.trail.(i)) <- -1
    done;
    let keep = Array.make (max 1 t.n_clauses) true in
    for ci = 0 to t.n_clauses - 1 do
      let c = t.clauses.(ci) in
      if Array.exists (fun l -> root_true t l) c.lits then keep.(ci) <- false
      else if Array.exists (fun l -> root_false t l) c.lits then begin
        let lits = Array.of_list (List.filter (fun l -> not (root_false t l)) (Array.to_list c.lits)) in
        (* propagation being complete at the root rules out 0- and
           1-literal leftovers (they would have conflicted or
           propagated); stay defensive anyway *)
        if Array.length lits >= 2 then c.lits <- lits
        else if Array.length lits = 1 then begin
          keep.(ci) <- false;
          if lit_value t lits.(0) = v_undef then enqueue t lits.(0) (-1)
        end
        else begin
          keep.(ci) <- false;
          t.ok <- false
        end
      end
    done;
    compact t keep;
    if propagate t >= 0 then t.ok <- false;
    t.simp_assigns <- t.trail_size
  end

(* Learnt-DB reduction: drop roughly half of the reducible learnt
   clauses — worst (highest LBD, then lowest activity) first — keeping
   every glue clause (LBD <= 2) and every locked clause. *)
let reduce_db t =
  if t.ok && decision_level t = 0 && t.qhead = t.trail_size then begin
    t.reduces <- t.reduces + 1;
    let reducible = ref [] in
    for ci = 0 to t.n_clauses - 1 do
      let c = t.clauses.(ci) in
      if c.learnt && c.lbd > 2 && not (locked t ci) then reducible := ci :: !reducible
    done;
    let order =
      List.sort
        (fun a b ->
          let ca = t.clauses.(a) and cb = t.clauses.(b) in
          if ca.lbd <> cb.lbd then compare cb.lbd ca.lbd (* higher LBD first *)
          else if ca.activity <> cb.activity then compare ca.activity cb.activity
          else compare a b)
        !reducible
    in
    let n_drop = List.length order / 2 in
    let keep = Array.make (max 1 t.n_clauses) true in
    List.iteri (fun i ci -> if i < n_drop then keep.(ci) <- false) order;
    compact t keep;
    t.max_learnts <- t.max_learnts + (t.max_learnts / 2)
  end

(* Internal-consistency audit for the test suite: every reason index
   must point at a live clause whose first literal is the implied one,
   and every stored clause must sit exactly once in the watch vector of
   each of its first two literals and nowhere else. *)
let self_check t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  for v = 1 to t.nvars do
    let r = t.reason.(v) in
    if r >= 0 then
      if r >= t.n_clauses then err "var %d: reason %d out of range" v r
      else begin
        let c = t.clauses.(r) in
        if Array.length c.lits = 0 || var_of c.lits.(0) <> v then
          err "var %d: reason clause %d does not assert it" v r;
        if lit_value t (pos v) = v_undef then err "var %d: unassigned but has a reason" v
      end
  done;
  (* watched.(2ci + k): entries for clause ci in the vector of its lit k *)
  let watched = Array.make (2 * t.n_clauses) 0 in
  let live = ref 0 in
  Array.iteri
    (fun l ws ->
      for j = 0 to t.watch_n.(l) - 1 do
        let ci = ws.(j) in
        incr live;
        if ci < 0 || ci >= t.n_clauses then err "watch vector %d: clause %d out of range" l ci
        else begin
          let lits = t.clauses.(ci).lits in
          match Array.find_index (( = ) l) lits with
          | Some k when k < 2 -> watched.((2 * ci) + k) <- watched.((2 * ci) + k) + 1
          | _ -> err "watch vector %d: stray watch of clause %d" l ci
        end
      done)
    t.watches;
  if !live <> 2 * t.n_clauses then err "%d live watches for %d clauses" !live t.n_clauses;
  for ci = 0 to t.n_clauses - 1 do
    let c = t.clauses.(ci) in
    if Array.length c.lits < 2 then err "clause %d: fewer than 2 literals" ci
    else
      for k = 0 to 1 do
        let w = watched.((2 * ci) + k) in
        if w <> 1 then err "clause %d: lit %d in its watch vector %d times" ci k w
      done;
    (* the rescale guards must keep every activity finite — inf/nan
       here would poison the reduce_db sort ordering *)
    if not (Float.is_finite c.activity) then err "clause %d: non-finite activity" ci
  done;
  for v = 1 to t.nvars do
    if not (Float.is_finite t.activity.(v)) then err "var %d: non-finite activity" v
  done;
  List.rev !errs

(* ---------- Luby restarts ---------- *)

let luby x =
  (* Luby sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
  let rec find_size size seq = if size < x + 1 then find_size ((2 * size) + 1) (seq + 1) else (size, seq) in
  let rec down x size seq =
    if size - 1 = x then 1 lsl seq
    else begin
      let size = (size - 1) / 2 in
      down (x mod size) size (seq - 1)
    end
  in
  let size, seq = find_size 1 0 in
  down x size seq

(* ---------- convergence tallies ---------- *)

let ilog2 v =
  let k = ref 0 and v = ref v in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

(* Per-conflict distribution bookkeeping: learnt-clause LBD (exact,
   tail at 63), trail depth and propagations-per-decision since the
   previous conflict (both log2-bucketed).  A handful of array bumps
   per conflict — noise next to the analysis that precedes them. *)
let tally_conflict t lbd =
  let li = if lbd < 63 then lbd else 63 in
  t.lbd_counts.(li) <- t.lbd_counts.(li) + 1;
  let ti = min 63 (ilog2 (max 1 t.trail_size)) in
  t.trail_counts.(ti) <- t.trail_counts.(ti) + 1;
  let dp = t.propagations - t.ppd_props and dd = t.decisions - t.ppd_decs in
  let pi = min 63 (ilog2 (max 1 (dp / max 1 dd))) in
  t.ppd_counts.(pi) <- t.ppd_counts.(pi) + 1;
  t.ppd_props <- t.propagations;
  t.ppd_decs <- t.decisions

(* ---------- main search ---------- *)

let solve ?(max_conflicts = max_int) ?(should_stop = fun () -> false) ?(assumptions = []) t =
  List.iter (check_lit t "Sat.solve: unknown assumption variable") assumptions;
  t.conflict_assumps <- [];
  if not t.ok then Unsat
  else begin
    cancel_until t 0;
    if propagate t >= 0 then begin
      t.ok <- false;
      Unsat
    end
    else begin
      let assumps = Array.of_list assumptions in
      if t.trail_size > t.simp_assigns then simplify t;
      if not t.ok then Unsat
      else begin
        let start_conflicts = t.conflicts in
        let result = ref Unknown in
        let finished = ref false in
        let restart_count = ref 0 in
        (* wall-clock polling, amortised: consult [should_stop] every few
           hundred loop iterations so the hook stays off the hot path *)
        let polls = ref 0 in
        let stop_requested = ref false in
        let poll_stop () =
          if not !stop_requested then begin
            incr polls;
            if !polls land 255 = 0 && should_stop () then stop_requested := true
          end;
          !stop_requested
        in
        while not !finished do
          let budget = 100 * luby !restart_count in
          incr restart_count;
          let local_conflicts = ref 0 in
          let restart_now = ref false in
          while not (!finished || !restart_now) do
            let confl = propagate t in
            if confl >= 0 then begin
              t.conflicts <- t.conflicts + 1;
              incr local_conflicts;
              if decision_level t = 0 then begin
                t.ok <- false;
                result := Unsat;
                finished := true
              end
              else begin
                let learnt, back_level, lbd = analyze t confl in
                tally_conflict t lbd;
                cancel_until t back_level;
                add_learnt t learnt lbd;
                decay_activities t
              end
            end
            else if t.conflicts - start_conflicts >= max_conflicts || poll_stop () then begin
              result := Unknown;
              finished := true
            end
            else if !local_conflicts >= budget then restart_now := true
            else begin
              (* assumption cursor: the decision level doubles as the
                 index of the next assumption to establish, so the
                 prefix is maintained in O(1) per decision — no scan of
                 the assumption list *)
              let dl = decision_level t in
              if dl < Array.length assumps then begin
                let a = assumps.(dl) in
                let v = lit_value t a in
                if v = v_true then
                  (* already implied: dedicate an empty level so the
                     cursor stays aligned with the decision level *)
                  new_decision_level t
                else if v = v_false then begin
                  t.conflict_assumps <- analyze_final t a;
                  result := Unsat;
                  finished := true
                end
                else begin
                  new_decision_level t;
                  enqueue t a (-1)
                end
              end
              else begin
                let v = ref (heap_pop t) in
                while !v >= 0 && lit_value t (pos !v) <> v_undef do
                  v := heap_pop t
                done;
                let v = !v in
                if v = -1 then begin
                  result := Sat;
                  finished := true
                end
                else begin
                  t.decisions <- t.decisions + 1;
                  new_decision_level t;
                  enqueue t (if t.phase.(v) then pos v else neg v) (-1)
                end
              end
            end
          done;
          if !restart_now then begin
            t.restarts <- t.restarts + 1;
            cancel_until t 0;
            if propagate t >= 0 then begin
              t.ok <- false;
              result := Unsat;
              finished := true
            end
            else begin
              if t.trail_size > t.simp_assigns then simplify t;
              if t.n_learnts > t.max_learnts then reduce_db t;
              if not t.ok then begin
                result := Unsat;
                finished := true
              end
            end
          end
        done;
        !result
      end
    end
  end

let stats t = (t.conflicts, t.decisions, t.propagations)
let n_learnts t = t.n_learnts
let n_reduces t = t.reduces
let n_restarts t = t.restarts
let dist_lbd t = Array.copy t.lbd_counts
let dist_trail t = Array.copy t.trail_counts
let dist_ppd t = Array.copy t.ppd_counts
