(* Fleet engine conformance (Section 5 at scale): the arena-backed
   Fleet engine must be behaviorally indistinguishable from Param_sched
   on fleet-eligible specs, so the differential tests here drive both
   engines with identical input streams — deterministic sagas, random
   QCheck streams with off-spec noise, flow-controlled drains — and
   compare every observable: per-call outcomes, realized traces, parked
   backlogs, reconstructed knowledge.  Also hosts the Arena codec
   roundtrip, fleet crash/recovery, and the actor waiter-FIFO
   regression. *)

open Wf_core
open Wf_scheduler
open Helpers

let psym b tok = Symbol.parametrized b [ tok ]
let v x = Ptemplate.Var x

(* Per binding x: the commit never happens, or its prepare precedes it
   (~c[x] + p[x]·c[x]) — the overload bench's workload shape. *)
let saga =
  Ptemplate.choice_all
    [
      Ptemplate.atom ~pol:Literal.Neg "c" [ v "x" ];
      Ptemplate.seq (Ptemplate.atom "p" [ v "x" ]) (Ptemplate.atom "c" [ v "x" ]);
    ]

(* Two chained dependencies over three bases: b needs a, c needs b. *)
let two_stage =
  [
    Ptemplate.choice_all
      [
        Ptemplate.atom ~pol:Literal.Neg "b" [ v "x" ];
        Ptemplate.seq (Ptemplate.atom "a" [ v "x" ]) (Ptemplate.atom "b" [ v "x" ]);
      ];
    Ptemplate.choice_all
      [
        Ptemplate.atom ~pol:Literal.Neg "c" [ v "x" ];
        Ptemplate.seq (Ptemplate.atom "b" [ v "x" ]) (Ptemplate.atom "c" [ v "x" ]);
      ];
  ]

(* --- eligibility --------------------------------------------------------- *)

let test_eligible () =
  checkb "saga eligible" (Fleet.eligible [ saga ]);
  checkb "two-stage eligible" (Fleet.eligible two_stage);
  checkb "mutex has two variables per dependency: ineligible"
    (not (Fleet.eligible [ Ptemplate.mutual_exclusion_template ~t1:"t1" ~t2:"t2" ]));
  checkb "constant parameter: ineligible"
    (not
       (Fleet.eligible
          [ Ptemplate.atom "a" [ Ptemplate.Const "1" ] ]));
  checkb "zero arity: ineligible"
    (not (Fleet.eligible [ Ptemplate.of_expr (Expr.seq e f) ]));
  checkb "inconsistent base arity: ineligible"
    (not
       (Fleet.eligible
          [
            Ptemplate.atom "a" [ v "x" ];
            Ptemplate.seq (Ptemplate.atom "a" [ v "y"; v "y" ]) (Ptemplate.atom "b" [ v "y" ]);
          ]));
  checkb "create refuses ineligible specs"
    (try
       ignore (Fleet.create [ Ptemplate.mutual_exclusion_template ~t1:"t1" ~t2:"t2" ]);
       false
     with Invalid_argument _ -> true)

(* --- differential: fleet vs Param_sched ---------------------------------- *)

type ev = A of Symbol.t | O of Literal.t

let show_outcome = function
  | Param_sched.Accepted -> "accepted"
  | Param_sched.Parked -> "parked"
  | Param_sched.Rejected -> "rejected"
  | Param_sched.Already -> "already"
  | Param_sched.Busy { retry_after } -> Printf.sprintf "busy(%g)" retry_after

(* Feed the same stream to both engines; every divergence is a failure.
   Returns the engines for further probing. *)
let run_both ?flow deps evs =
  let se = Param_sched.create ?flow deps in
  let fe = Fleet.create ?flow deps in
  List.iteri
    (fun i ev ->
      match ev with
      | A sym ->
          let a = Param_sched.attempt se sym in
          let b = Fleet.attempt fe sym in
          if a <> b then
            Alcotest.failf "event %d, attempt %s: symbolic=%s fleet=%s" i
              (Symbol.name sym) (show_outcome a) (show_outcome b)
      | O l ->
          Param_sched.occurred se l;
          Fleet.occurred fe l)
    evs;
  check trace_testable "traces agree" (Param_sched.trace se) (Fleet.trace fe);
  checkb "parked backlogs agree (content and order)"
    (List.equal Symbol.equal (Param_sched.parked se) (Fleet.parked fe));
  checkb "knowledge agrees"
    (Knowledge.equal (Param_sched.knowledge se) (Fleet.knowledge fe));
  check Alcotest.int "symbolic parked counter = |parked|"
    (List.length (Param_sched.parked se))
    (Param_sched.parked_count se);
  check Alcotest.int "fleet parked counter = |parked|"
    (List.length (Fleet.parked fe))
    (Fleet.parked_count fe);
  (se, fe)

let test_differential_deterministic () =
  (* Out-of-order commits park, prepares release them binding by
     binding, re-attempts report Already, never-prepared commits stay
     parked. *)
  let evs =
    [
      A (psym "c" "0");
      A (psym "c" "1");
      A (psym "c" "2");
      O (Literal.pos (psym "p" "1"));
      A (psym "c" "1");
      O (Literal.pos (psym "p" "0"));
      A (psym "c" "3");
      O (Literal.neg (psym "p" "2"));
      A (psym "c" "2");
      O (Literal.pos (psym "p" "3"));
    ]
  in
  let _se, fe = run_both [ saga ] evs in
  (* c(2)'s guard went False (~p(2) occurred) but parked tokens are only
     released by acceptance — like Param_sched, the fleet keeps it
     parked for the driver's end-of-run closing. *)
  check Alcotest.int "only the doomed c(2) left parked" 1
    (Fleet.parked_count fe);
  checkb "and it is c(2)"
    (List.equal Symbol.equal [ psym "c" "2" ] (Fleet.parked fe));
  check Alcotest.int "four bindings interned" 4 (Fleet.bindings fe);
  checkb "decided covers retried tokens" (Fleet.decided fe (psym "c" "1"));
  checkb "fleet stepped compiled tables"
    (Wf_obs.Metrics.count (Fleet.stats fe) "fleet_table_steps" > 0)

(* Random streams: on-spec attempts and occurrences over a small token
   universe (duplicates and conflicting polarities certain), plus
   off-spec noise — unknown bases and arity mismatches — that the
   symbolic engine vacuously accepts. *)
let gen_ev : ev QCheck2.Gen.t =
  let open QCheck2.Gen in
  let tok = map string_of_int (int_bound 5) in
  let base = oneofl [ "a"; "b"; "c" ] in
  frequency
    [
      (5, map2 (fun b t -> A (psym b t)) base tok);
      (3, map2 (fun b t -> O (Literal.pos (psym b t))) base tok);
      (2, map2 (fun b t -> O (Literal.neg (psym b t))) base tok);
      (1, map (fun t -> A (Symbol.parametrized "z" [ t; t ])) tok);
      (1, map (fun t -> O (Literal.pos (Symbol.parametrized "a" [ t; "9" ]))) tok);
    ]

let gen_stream = QCheck2.Gen.(list_size (int_bound 60) gen_ev)

let prop_differential evs =
  ignore (run_both two_stage evs);
  true

let prop_differential_flow evs =
  (* Same streams under a tight admission gate: shed decisions, Busy
     retry horizons (jitter included: both flow controllers run the
     same seeded RNG), and post-drain states must all coincide. *)
  let flow =
    {
      Flow.default_config with
      Flow.shed_watermark = 3;
      probe_every = 5;
      retry_base = 0.5;
      retry_max = 4.0;
    }
  in
  ignore (run_both ~flow two_stage evs);
  true

let test_differential_flow_drains () =
  (* The flow drain of test_flow's "sheds, drains, exactly-once", run
     against both engines in lockstep. *)
  let flow =
    {
      Flow.default_config with
      Flow.shed_watermark = 2;
      probe_every = 4;
      retry_base = 1.0;
      retry_max = 4.0;
    }
  in
  let se = Param_sched.create ~flow [ saga ] in
  let fe = Fleet.create ~flow [ saga ] in
  let both_attempt sym =
    let a = Param_sched.attempt se sym in
    let b = Fleet.attempt fe sym in
    if a <> b then
      Alcotest.failf "diverged on %s: symbolic=%s fleet=%s" (Symbol.name sym)
        (show_outcome a) (show_outcome b);
    a
  in
  let jobs = 16 in
  let shed = ref [] in
  for i = 0 to jobs - 1 do
    match both_attempt (psym "c" (string_of_int i)) with
    | Param_sched.Parked -> ()
    | Param_sched.Busy _ -> shed := i :: !shed
    | _ -> Alcotest.fail "commit before prepare cannot be decided"
  done;
  checkb "gate engaged" (!shed <> []);
  for i = 0 to jobs - 1 do
    let p = Literal.pos (psym "p" (string_of_int i)) in
    Param_sched.occurred se p;
    Fleet.occurred fe p
  done;
  let rec retry n sym =
    if n > 100 then Alcotest.fail "attempt never admitted"
    else
      match both_attempt sym with
      | Param_sched.Busy _ -> retry (n + 1) sym
      | Param_sched.Accepted | Param_sched.Already -> ()
      | _ -> Alcotest.fail "drained commit must be accepted"
  in
  List.iter (fun i -> retry 0 (psym "c" (string_of_int i))) (List.rev !shed);
  check Alcotest.int "fleet backlog drained" 0 (Fleet.parked_count fe);
  check Alcotest.int "symbolic backlog drained" 0 (Param_sched.parked_count se);
  check trace_testable "exactly-once traces agree" (Param_sched.trace se)
    (Fleet.trace fe);
  check Alcotest.int "2 events per job" (2 * jobs)
    (Trace.length (Fleet.trace fe))

(* --- crash / recovery ---------------------------------------------------- *)

let split_at n l =
  let rec go k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (k - 1) (x :: acc) rest
  in
  go n [] l

let feed_fleet fe evs =
  List.iter
    (function A s -> ignore (Fleet.attempt fe s) | O l -> Fleet.occurred fe l)
    evs

let crash_stream =
  [
    A (psym "c" "0");
    A (psym "c" "1");
    O (Literal.pos (psym "a" "0"));
    A (psym "b" "0");
    A (psym "b" "5");
    O (Literal.pos (psym "b" "1"));
    A (psym "c" "1");
    O (Literal.neg (psym "a" "5"));
    A (psym "c" "7");
    O (Literal.pos (psym "b" "7"));
  ]

let test_fleet_recover_equal_and_continues () =
  (* In-memory journal: recovery restores the exact pre-crash state
     (arena, interner, logs, counters) and the recovered engine then
     tracks a never-crashed Param_sched to the end of the stream. *)
  let prefix, suffix = split_at 6 crash_stream in
  let se = Param_sched.create two_stage in
  let fe = Fleet.create ~checkpoint_every:4 two_stage in
  List.iter
    (function
      | A s -> ignore (Param_sched.attempt se s)
      | O l -> Param_sched.occurred se l)
    (prefix @ suffix);
  feed_fleet fe prefix;
  checkb "parked backlog nonempty at crash point" (Fleet.parked_count fe > 0);
  let fe' = Fleet.recover fe in
  checkb "recovered state equals pre-crash state" (Fleet.equal_state fe fe');
  checkb "parked backlog survived the crash"
    (List.equal Symbol.equal (Fleet.parked fe) (Fleet.parked fe'));
  feed_fleet fe' suffix;
  check trace_testable "recovered fleet tracks the symbolic engine"
    (Param_sched.trace se) (Fleet.trace fe');
  checkb "knowledge agrees after recovery"
    (Knowledge.equal (Param_sched.knowledge se) (Fleet.knowledge fe'))

let test_fleet_recover_with_store () =
  (* Checksummed media path: the arena checkpoint and input suffix ride
     the framed log; with no injected faults salvage keeps everything
     and recovery is exact. *)
  let fe =
    Fleet.create ~checkpoint_every:3 ~store:Wf_store.Media.Sim.no_faults
      ~store_seed:11L two_stage
  in
  feed_fleet fe crash_stream;
  let fe' = Fleet.recover fe in
  checkb "salvage report produced" (Fleet.last_salvage fe' <> None);
  checkb "fault-free media recovery is exact" (Fleet.equal_state fe fe');
  (* Recover twice: idempotent. *)
  let fe'' = Fleet.recover fe' in
  checkb "second recovery still exact" (Fleet.equal_state fe fe'')

let test_fleet_driver () =
  (* End to end through Param_driver's engine dispatch: same seeds,
     same workflow, begin-before-end chain dependencies — the fleet run
     (with injected crashes) must realize the same trace as the
     symbolic run. *)
  let wf =
    Wf_tasks.Workflow_def.make ~name:"fleet"
      ~tasks:
        [
          Wf_tasks.Workflow_def.task ~instance:"t1"
            ~model:Wf_tasks.Task_model.loop_task
            ~script:(Wf_tasks.Agent.looping 3) ~parametrize:true ();
          Wf_tasks.Workflow_def.task ~instance:"t2"
            ~model:Wf_tasks.Task_model.loop_task
            ~script:(Wf_tasks.Agent.looping 3) ~parametrize:true ();
        ]
      ~deps:[] ()
  in
  let chain t =
    Ptemplate.choice_all
      [
        Ptemplate.atom ~pol:Literal.Neg ("e_" ^ t) [ v "x" ];
        Ptemplate.seq
          (Ptemplate.atom ("b_" ^ t) [ v "x" ])
          (Ptemplate.atom ("e_" ^ t) [ v "x" ]);
      ]
  in
  let templates = [ chain "t1"; chain "t2" ] in
  List.iter
    (fun seed ->
      let sym_run = Param_driver.run ~seed ~templates wf in
      let fleet_run = Param_driver.run ~seed ~engine:`Fleet ~templates wf in
      let fleet_crashy =
        Param_driver.run ~seed ~engine:`Fleet ~crash_every:5 ~templates wf
      in
      checkb "all three runs finish"
        (sym_run.Param_driver.finished && fleet_run.Param_driver.finished
        && fleet_crashy.Param_driver.finished);
      check trace_testable "fleet trace = symbolic trace"
        sym_run.Param_driver.trace fleet_run.Param_driver.trace;
      check trace_testable "crash replay is invisible"
        sym_run.Param_driver.trace fleet_crashy.Param_driver.trace)
    [ 3L; 7L; 11L ]

(* --- arena --------------------------------------------------------------- *)

let test_arena_roundtrip () =
  let a = Arena.create ~capacity:2 ~width:3 () in
  for r = 0 to 99 do
    Arena.ensure a r;
    for c = 0 to 2 do
      Arena.set a r c (((r * 31) + c) * if (r + c) mod 4 = 0 then -1 else 1)
    done
  done;
  check Alcotest.int "rows tracked" 100 (Arena.rows a);
  checkb "capacity doubled past rows" (Arena.words a >= 300);
  let s = Wf_store.Binio.encode Arena.encode a in
  (match Wf_store.Binio.decode Arena.decode s with
  | None -> Alcotest.fail "arena codec must roundtrip"
  | Some b ->
      checkb "decoded arena equal (width, rows, cells)" (Arena.equal a b);
      check Alcotest.int "cell survives" (Arena.get a 57 2) (Arena.get b 57 2));
  (* Equality ignores slack capacity but not content. *)
  let c = Arena.create ~capacity:512 ~width:3 () in
  Arena.ensure c 99;
  checkb "zero arena differs from the filled one" (not (Arena.equal a c))

(* --- actor waiter queue (reservation FIFO) ------------------------------- *)

let test_reservation_waiters_fifo () =
  (* Regression for the quadratic waiters append: requesters queued
     behind a reservation holder must drain in arrival order with O(1)
     enqueue/dequeue.  Arrival order is a permutation of the name
     order, so any ordering bug (or a newest-first drain) shows up. *)
  let granted = ref [] in
  let ctx =
    {
      Actor.send =
        (fun _ msg ->
          match msg with
          | Messages.Reserve_granted { to_; _ } -> granted := to_ :: !granted
          | _ -> ());
      fire = (fun _ -> ());
      reject = (fun _ -> ());
      trigger_task = (fun _ -> true);
      stats = Wf_obs.Metrics.create ();
      emit_assim = None;
    }
  in
  let esym = Literal.symbol (lit "e") in
  let actor =
    Actor.create ~sym:esym ~site:0
      ~guard_pos:(Synth.guard e (lit "e"))
      ~guard_neg:(Synth.guard e (lit "~e"))
      ~attr_pos:Wf_tasks.Attribute.default
      ~attr_neg:Wf_tasks.Attribute.uncontrollable ()
  in
  let n = 64 in
  let arrival =
    List.init n (fun k -> lit (Printf.sprintf "w%02d" (k * 37 mod n)))
  in
  List.iter
    (fun r ->
      Actor.handle ctx actor (Messages.Reserve { sym = esym; requester = r }))
    arrival;
  (* Nothing is parked, so the first requester was granted immediately;
     the rest queued behind it in arrival order. *)
  check Alcotest.int "one holder, rest queued" (n - 1)
    (List.length (Actor.waiters actor));
  checkb "queue preserves arrival order"
    (List.equal Literal.equal (List.tl arrival) (Actor.waiters actor));
  for _ = 1 to n do
    Actor.handle ctx actor (Messages.Release { sym = esym; holder = lit "e" })
  done;
  checkb "grants follow arrival order exactly, nobody starved"
    (List.equal Literal.equal arrival (List.rev !granted));
  check Alcotest.int "queue drained" 0 (List.length (Actor.waiters actor))

(* A twelve-step chain per binding: the guard of its last step is past
   the compiled tables' state bound (a k-step chain guard has 2^(k-1)+1
   states), so the fleet decides it on its symbolic fallback and
   Param_sched's table hint answers nothing; the two must still agree on
   every outcome.  The first eleven steps are forced occurrences, so
   only the last step's guard is ever evaluated. *)
let long_chain =
  let step i = Ptemplate.atom (Printf.sprintf "k%d" i) [ v "x" ] in
  Ptemplate.choice_all
    [
      Ptemplate.atom ~pol:Literal.Neg "k11" [ v "x" ];
      List.fold_left
        (fun acc i -> Ptemplate.seq acc (step i))
        (step 0)
        (List.init 11 (fun i -> i + 1));
    ]

let test_differential_past_table_bound () =
  let k i tok = psym (Printf.sprintf "k%d" i) tok in
  let steps tok order = List.map (fun i -> O (Literal.pos (k i tok))) order in
  let evs =
    (* 0: parks, then its chain completes and releases it.  1: a step is
       refused first, so the attempt is rejected.  2: parks, then a
       step is refused under it; the retry is rejected. *)
    [ A (k 11 "0"); A (k 11 "2") ]
    @ steps "0" (List.init 11 Fun.id)
    @ [ O (Literal.neg (k 0 "1")); A (k 11 "1") ]
    @ steps "2" [ 0; 1 ]
    @ [ O (Literal.neg (k 2 "2")); A (k 11 "2") ]
  in
  let se, fe = run_both [ long_chain ] evs in
  checkb "0's last step was released"
    (List.exists (Literal.equal (Literal.pos (k 11 "0"))) (Param_sched.trace se));
  checkb "1's last step never occurred"
    (not (Knowledge.decided (Param_sched.knowledge se) (k 11 "1")));
  checkb "2's last step stays parked"
    (List.equal Symbol.equal [ k 11 "2" ] (Fleet.parked fe));
  let count = Wf_obs.Metrics.count (Fleet.stats fe) in
  checkb "the fleet decided symbolically" (count "fleet_symbolic_evals" > 0);
  check Alcotest.int "no compiled table was stepped" 0
    (count "fleet_table_steps")

let suite =
  [
    Alcotest.test_case "fleet eligibility" `Quick test_eligible;
    Alcotest.test_case "differential: deterministic saga" `Quick
      test_differential_deterministic;
    qprop ~count:150 "differential: random streams + off-spec noise"
      gen_stream prop_differential;
    qprop ~count:100 "differential: random streams under admission gate"
      gen_stream prop_differential_flow;
    Alcotest.test_case "differential: flow sheds, drains, exactly-once" `Quick
      test_differential_flow_drains;
    Alcotest.test_case "differential: chain past the table bound" `Quick
      test_differential_past_table_bound;
    Alcotest.test_case "recover restores arena state and continues" `Quick
      test_fleet_recover_equal_and_continues;
    Alcotest.test_case "recover over checksummed media" `Quick
      test_fleet_recover_with_store;
    Alcotest.test_case "driver dispatch: fleet = symbolic, crashes invisible"
      `Quick test_fleet_driver;
    Alcotest.test_case "arena codec roundtrip" `Quick test_arena_roundtrip;
    Alcotest.test_case "reservation waiters drain FIFO" `Quick
      test_reservation_waiters_fifo;
  ]
