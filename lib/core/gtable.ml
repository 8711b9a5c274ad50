(* Compiled guards: a synthesized guard's residuation behavior under
   assimilation is a finite automaton over the guard's own symbols
   (Figure 2 observes this for dependencies; guards inherit it because
   [assimilate_occurred]/[assimilate_promise] never introduce symbols).
   Compiling that automaton once and flattening it into an int
   transition table turns the steady-state per-message work — which the
   symbolic engine does by DNF rewriting through [normalize_sum] — into
   one array read.

   Closed-alphabet precondition: a table is only valid while the
   guard's symbol set is fixed.  Ground guards (everything the actor
   and central schedulers evaluate) satisfy it; parametrized templates
   gain symbols as fresh tokens arrive, so the parametrized engine only
   consults tables for fully-instantiated ground guards and falls back
   to the symbolic engine for fresh instances.

   The symbolic leg stays authoritative: a table answers [Enabled] /
   [Violated] only when the residual is syntactically ⊤ / 0, and every
   integration site treats [Open] as "ask [Knowledge.status]".  Both
   decisive answers are sound under extra restrictions (reservations,
   never-sets) because they hold over *all* completions: restricting
   the future preserves them. *)

type state = int
type verdict = Enabled | Violated | Open

(* Per-state verdict bitsets. *)
let bit_get b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

module Sym_tbl = Hashtbl.Make (struct
  type t = Symbol.t

  let equal = Symbol.equal
  let hash = Symbol.hash
end)

type t = {
  syms : Symbol.t array; (* the guard's alphabet, sorted *)
  sym_index : int Sym_tbl.t;
  width : int; (* 4 * |syms|: per-symbol inputs □x, □x̄, ◇x, ◇x̄ *)
  next : int array; (* next.(s * width + input) = successor state *)
  enabled : Bytes.t; (* residual is ⊤ *)
  violated : Bytes.t; (* residual is 0 *)
  forced : Bytes.t; (* some literal's complement-occurrence violates *)
  guards : Guard.t array; (* residual guard per state, for fallback *)
}

(* Input codes within a symbol's 4-slot group. *)
let occ_code = function Literal.Pos -> 0 | Literal.Neg -> 1
let prom_code = function Literal.Pos -> 2 | Literal.Neg -> 3

let initial _ = 0
let num_states t = Array.length t.guards
let num_symbols t = Array.length t.syms
let alphabet t = Array.to_list t.syms
let mem_symbol t sym = Sym_tbl.mem t.sym_index sym
let guard_of t s = t.guards.(s)

let verdict t s =
  if bit_get t.enabled s then Enabled
  else if bit_get t.violated s then Violated
  else Open

let is_forced t s = bit_get t.forced s

let step_occurred t s (l : Literal.t) =
  match Sym_tbl.find_opt t.sym_index l.Literal.sym with
  | None -> s
  | Some i -> t.next.((s * t.width) + (4 * i) + occ_code l.Literal.pol)

let step_promised t s (l : Literal.t) =
  match Sym_tbl.find_opt t.sym_index l.Literal.sym with
  | None -> s
  | Some i -> t.next.((s * t.width) + (4 * i) + prom_code l.Literal.pol)

(* Indexed stepping: fleets of instances sharing one table resolve each
   (symbol, polarity) to its input column once, then step every
   instance with a single array read — no per-step hash lookup. *)
let occ_input t sym pol =
  match Sym_tbl.find_opt t.sym_index sym with
  | None -> None
  | Some i -> Some ((4 * i) + occ_code pol)

let step_input t s input = t.next.((s * t.width) + input)

(* Replay a knowledge onto the table: occurrences in seqno order (the
   order the symbolic engine assimilated them — pending terms are
   order-sensitive), then the still-outstanding promises (per-symbol
   mask intersections, which commute). *)
let of_knowledge t know =
  let occs = ref [] in
  let proms = ref [] in
  Array.iter
    (fun sym ->
      match Knowledge.fate_of know sym with
      | Some (Knowledge.Occurred (pol, n)) ->
          occs := (n, { Literal.sym; pol }) :: !occs
      | Some (Knowledge.Promised pol) -> proms := { Literal.sym; pol } :: !proms
      | None -> ())
    t.syms;
  let occs = List.sort (fun (a, _) (b, _) -> Int.compare a b) !occs in
  let s = List.fold_left (fun s (_, l) -> step_occurred t s l) 0 occs in
  List.fold_left (fun s l -> step_promised t s l) s !proms

(* --- compilation --------------------------------------------------------- *)

module GMap = Map.Make (struct
  type t = Guard.t

  let compare = Guard.compare
end)

(* A sequential guard over k symbols residuates to 2^(k-1)+1 states
   (every occurred-subset plus the violated sink), so 1024 admits
   chains up to 10 deep; beyond that a table would outweigh the
   symbolic walk it replaces. *)
let default_max_states = 1024
let max_symbols = 30 (* 4*30 inputs per state; wider guards stay symbolic *)

let compile ?(max_states = default_max_states) g0 =
  let sym_list = Symbol.Set.elements (Guard.symbols g0) in
  let k = List.length sym_list in
  if k > max_symbols then None
  else begin
    let syms = Array.of_list sym_list in
    let width = 4 * k in
    let index = ref (GMap.singleton g0 0) in
    let rev_guards = ref [ g0 ] in
    let count = ref 1 in
    let queue = Queue.create () in
    Queue.add g0 queue;
    let rev_rows = ref [] in
    let overflow = ref false in
    let id_of g =
      match GMap.find_opt g !index with
      | Some s -> s
      | None ->
          if !count >= max_states then begin
            overflow := true;
            0
          end
          else begin
            let s = !count in
            incr count;
            index := GMap.add g s !index;
            rev_guards := g :: !rev_guards;
            Queue.add g queue;
            s
          end
    in
    while (not (Queue.is_empty queue)) && not !overflow do
      let g = Queue.pop queue in
      let row = Array.make width 0 in
      Array.iteri
        (fun i sym ->
          let base = 4 * i in
          row.(base + 0) <- id_of (Guard.assimilate_occurred (Literal.pos sym) g);
          row.(base + 1) <- id_of (Guard.assimilate_occurred (Literal.neg sym) g);
          row.(base + 2) <- id_of (Guard.assimilate_promise (Literal.pos sym) g);
          row.(base + 3) <- id_of (Guard.assimilate_promise (Literal.neg sym) g))
        syms;
      rev_rows := row :: !rev_rows
    done;
    if !overflow then None
    else begin
      let guards = Array.of_list (List.rev !rev_guards) in
      let n = Array.length guards in
      let next = Array.make (max 1 (n * width)) 0 in
      List.iteri
        (fun j row ->
          let s = n - 1 - j in
          Array.blit row 0 next (s * width) width)
        !rev_rows;
      let nbytes = (n + 7) / 8 in
      let enabled = Bytes.make nbytes '\000' in
      let violated = Bytes.make nbytes '\000' in
      let forced = Bytes.make nbytes '\000' in
      Array.iteri
        (fun s g ->
          if Guard.is_true g then bit_set enabled s
          else if Guard.is_false g then bit_set violated s)
        guards;
      for s = 0 to n - 1 do
        if (not (bit_get enabled s)) && not (bit_get violated s) then begin
          let f = ref false in
          for i = 0 to k - 1 do
            let t_pos = next.((s * width) + (4 * i)) in
            let t_neg = next.((s * width) + (4 * i) + 1) in
            if Guard.is_false guards.(t_pos) || Guard.is_false guards.(t_neg)
            then f := true
          done;
          if !f then bit_set forced s
        end
      done;
      let sym_index = Sym_tbl.create (max 1 k) in
      Array.iteri (fun i sym -> Sym_tbl.replace sym_index sym i) syms;
      Some { syms; sym_index; width; next; enabled; violated; forced; guards }
    end
  end

(* --- memoized lookup ----------------------------------------------------- *)

let memo : (int, t option) Hashtbl.t = Hashtbl.create 256
let compiled_states = ref 0
let fallbacks = ref 0

let () =
  Intern.register_clearer (fun () ->
      Hashtbl.reset memo;
      compiled_states := 0;
      fallbacks := 0)

let lookup g =
  let uid = Guard.uid g in
  match Hashtbl.find_opt memo uid with
  | Some r -> r
  | None ->
      let r = compile g in
      (match r with
      | Some t -> compiled_states := !compiled_states + num_states t
      | None -> incr fallbacks);
      Hashtbl.add memo uid r;
      r

let status_hint g know =
  match lookup g with
  | None -> None
  | Some t -> (
      match verdict t (of_knowledge t know) with
      | Enabled -> Some Knowledge.True
      | Violated -> Some Knowledge.False
      | Open -> None)

let stats () =
  [
    ("compiled_guards", Hashtbl.length memo);
    ("compiled_states", !compiled_states);
    ("uncompilable", !fallbacks);
  ]

(* Canonical fingerprint of the flattened table (alphabet, transitions,
   verdict bitsets), for pinned regression tests. *)
let fingerprint t =
  let open Fingerprint in
  let h = init in
  let h = int h (Array.length t.guards) in
  let h =
    Array.fold_left (fun h sym -> string h (Symbol.name sym)) h t.syms
  in
  let h = Array.fold_left int h t.next in
  let h = string h (Bytes.to_string t.enabled) in
  let h = string h (Bytes.to_string t.violated) in
  string h (Bytes.to_string t.forced)
