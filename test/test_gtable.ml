(* Compiled guard tables (Gtable): unit pins on a chain guard, the
   differential property against the symbolic assimilation engine —
   walking the table step by step must land on exactly the residual
   guard the naive fold computes, with matching verdicts — the pinned
   model-checker state counts, and the symbolic fallback for guards
   past the compile bound, run inside the distributed engine. *)

open Wf_core
open Helpers
module Mc = Wf_check.Mc

let spec_dir =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) "../specs";
      "../specs";
      "specs";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> "../specs"

let load name =
  (Wf_lang.Elaborate.load_file (Filename.concat spec_dir name))
    .Wf_lang.Elaborate.def

let chain_guard () =
  (* Guard of g in the chain e.f.g: e and f must both have occurred. *)
  Synth.guard (Expr.seq_all [ e; f; g ]) (lit "g")

let compile_exn g =
  match Gtable.compile g with
  | Some t -> t
  | None -> Alcotest.fail "chain guard should compile"

(* --- Unit pins ----------------------------------------------------------- *)

let test_chain_walk () =
  let tbl = compile_exn (chain_guard ()) in
  let s0 = Gtable.initial tbl in
  checkb "initial state is open" (Gtable.verdict tbl s0 = Gtable.Open);
  let s = Gtable.step_occurred tbl s0 (lit "e") in
  checkb "after e still open" (Gtable.verdict tbl s = Gtable.Open);
  let s = Gtable.step_occurred tbl s (lit "f") in
  checkb "after e,f enabled" (Gtable.verdict tbl s = Gtable.Enabled);
  let v = Gtable.step_occurred tbl s0 (lit "~e") in
  checkb "after ~e violated" (Gtable.verdict tbl v = Gtable.Violated);
  checkb "decisive states are sinks"
    (Gtable.verdict tbl (Gtable.step_occurred tbl v (lit "f"))
    = Gtable.Violated)

let test_foreign_noop () =
  let tbl = compile_exn (chain_guard ()) in
  let s0 = Gtable.initial tbl in
  checkb "z outside alphabet"
    (not (Gtable.mem_symbol tbl (Literal.symbol (lit "z"))));
  check Alcotest.int "occurrence of z is a no-op" s0
    (Gtable.step_occurred tbl s0 (lit "z"));
  check Alcotest.int "promise of z is a no-op" s0
    (Gtable.step_promised tbl s0 (lit "z"))

let test_memo () =
  let g = chain_guard () in
  match (Gtable.lookup g, Gtable.lookup g) with
  | Some a, Some b -> checkb "lookup memoizes per guard" (a == b)
  | _ -> Alcotest.fail "lookup should compile the chain guard"

let test_compile_bounds () =
  checkb "state bound respected"
    (Gtable.compile ~max_states:1 (chain_guard ()) = None);
  let stats = Gtable.stats () in
  List.iter
    (fun k -> checkb (k ^ " reported") (List.mem_assoc k stats))
    [ "compiled_guards"; "compiled_states"; "uncompilable" ]

let test_fingerprint_stable () =
  let t1 = compile_exn (chain_guard ()) in
  let t2 = compile_exn (chain_guard ()) in
  check Alcotest.int "recompilation reproduces the fingerprint"
    (Gtable.fingerprint t1) (Gtable.fingerprint t2)

let test_verdict_matrix () =
  let tbl = compile_exn (chain_guard ()) in
  let m = Tables.gtable_verdicts tbl in
  check Alcotest.int "one row per state" (Gtable.num_states tbl)
    (List.length m.Tables.row_labels);
  check
    Alcotest.(list string)
    "verdict columns"
    [ "enabled"; "violated"; "forced" ]
    m.Tables.col_labels;
  checkb "renders" (String.length (Tables.render m) > 0)

(* --- Differential properties --------------------------------------------- *)

(* A delivery script: occurrence/promise announcements over the same
   three-symbol pool the random expressions draw from. *)
let gen_script =
  QCheck2.Gen.(
    pair gen_expr (list_size (int_bound 8) (pair bool gen_literal)))

(* Exact differential: over the table's own alphabet the walk must
   reproduce the naive assimilation fold literally — compile builds
   transitions with the same functions, so any gap is a real bug. *)
let differential =
  qprop ~count:150 "table walk = naive assimilation fold"
    gen_script
    (fun (d, steps) ->
      Literal.Set.for_all
        (fun l ->
          let g0 = Synth.guard d l in
          match Gtable.compile g0 with
          | None -> true
          | Some tbl ->
              let steps =
                List.filter
                  (fun (_, x) -> Gtable.mem_symbol tbl (Literal.symbol x))
                  steps
              in
              let g, s =
                List.fold_left
                  (fun (g, s) (promise, x) ->
                    if promise then
                      (Guard.assimilate_promise x g, Gtable.step_promised tbl s x)
                    else
                      ( Guard.assimilate_occurred x g,
                        Gtable.step_occurred tbl s x ))
                  (g0, Gtable.initial tbl) steps
              in
              Guard.equal (Gtable.guard_of tbl s) g
              && Gtable.verdict tbl s
                 = (if Guard.is_true g then Gtable.Enabled
                    else if Guard.is_false g then Gtable.Violated
                    else Gtable.Open))
        (Expr.literals d))

(* Soundness of the short-circuit the schedulers take: whenever the
   table decides a guard under some knowledge, the symbolic
   Knowledge.status must say the same thing. *)
let hint_sound =
  qprop ~count:150 "status_hint agrees with Knowledge.status when decisive"
    gen_script
    (fun (d, steps) ->
      Literal.Set.for_all
        (fun l ->
          let g = Synth.guard d l in
          (* Occurrences are unique per symbol in any real run;
             Knowledge.occurred rejects contradictions, so drop the
             re-deliveries the raw script may contain. *)
          let know, _ =
            List.fold_left
              (fun (k, n) (promise, x) ->
                if promise then (Knowledge.promised x k, n)
                else if Knowledge.decided k (Literal.symbol x) then (k, n)
                else (Knowledge.occurred x ~seqno:n k, n + 1))
              (Knowledge.empty, 0) steps
          in
          match Gtable.status_hint g know with
          | None -> true
          | Some s -> Knowledge.status know g = s)
        (Expr.literals d))

(* --- Model-checker pins ------------------------------------------------- *)

(* Tables only short-circuit guard evaluations; they never change the
   answers, so wfmc explores exactly the state counts test_check pins. *)
let test_mc_pins () =
  List.iter
    (fun (name, pinned) ->
      check Alcotest.int (name ^ " states") pinned
        (Mc.check ~spec_name:name (load name)).Mc.r_states)
    [ ("mc_pair.wf", 91); ("mc_trigger.wf", 242) ]

(* --- Table-bound fallback ----------------------------------------------- *)

(* A sequential guard over k symbols residuates to 2^(k-1)+1 table
   states, so in a chain of twelve commits the guard of the last one is
   past [Gtable.compile]'s default bound: every engine must evaluate it
   on the symbolic leg.  The chain is guarded by [~c_t11 +] so a run can
   always finish by rejecting the last commit. *)
let bound_chain = List.init 12 (Printf.sprintf "t%d")
let bound_last = Catalog.commit_of "t11"

let bound_dep =
  Expr.choice
    (Expr.atom (Literal.complement bound_last))
    (Expr.seq_all
       (List.map (fun t -> Expr.atom (Catalog.commit_of t)) bound_chain))

let bound_wf =
  Wf_tasks.Workflow_def.make ~name:"bound_chain"
    ~tasks:
      (List.mapi
         (fun i t ->
           Wf_tasks.Workflow_def.task ~instance:t
             ~model:Wf_tasks.Task_model.transaction ~site:(i mod 4) ())
         bound_chain)
    ~deps:[ ("chain", bound_dep) ]
    ()

let test_bound_fallback () =
  let module Ev = Wf_scheduler.Event_sched in
  let plan = Compile.plan (Compile.compile [ bound_dep ]) bound_last in
  checkb "the last commit's guard is past the table bound"
    (Gtable.compile plan.Compile.guard = None);
  let uncompilable () = List.assoc "uncompilable" (Gtable.stats ()) in
  let before = uncompilable () in
  let faults =
    {
      Wf_sim.Netsim.no_faults with
      drop_rate = 0.1;
      crash_on_deliver = 0.05;
      crash_on_send = 0.02;
      restart_delay = 2.0;
      max_crashes = 8;
    }
  in
  let crashes = ref 0 in
  List.iter
    (fun seed ->
      let r = Ev.run ~config:{ Ev.default_config with seed; faults } bound_wf in
      let name = Printf.sprintf "seed %Ld" seed in
      checkb (name ^ ": satisfied") r.Ev.satisfied;
      check Alcotest.int (name ^ ": no violations") 0
        (List.length r.Ev.violations);
      crashes := !crashes + Wf_obs.Metrics.count r.Ev.stats "net_crashes")
    (suite_seeds "gtable-bound-fallback" 6);
  checkb "crashes were injected" (!crashes > 0);
  checkb "the engine's lookups answered None" (uncompilable () > before);
  checkb "lookup answers None for the plan"
    (Gtable.lookup plan.Compile.guard = None)

let suite =
  [
    Alcotest.test_case "chain guard walks to its verdicts" `Quick
      test_chain_walk;
    Alcotest.test_case "foreign symbols are no-ops" `Quick test_foreign_noop;
    Alcotest.test_case "lookup memoizes per guard" `Quick test_memo;
    Alcotest.test_case "compile respects bounds; stats exposed" `Quick
      test_compile_bounds;
    Alcotest.test_case "fingerprint is reproducible" `Quick
      test_fingerprint_stable;
    Alcotest.test_case "verdict matrix renders" `Quick test_verdict_matrix;
    differential;
    hint_sound;
    Alcotest.test_case "wfmc explores the pinned states" `Quick test_mc_pins;
    Alcotest.test_case "guards past the table bound run symbolically" `Quick
      test_bound_fallback;
  ]
