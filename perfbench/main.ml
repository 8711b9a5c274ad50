(* Repo benchmark: four workloads, one per engine path.

     main.exe setup  --workload W --seed N            cold set-up, one sample
     main.exe phases --workload W --seed N            cold compile phases
     main.exe run    --workload W --seed N --seconds T --trace 0|1 [--plant]

   perfbench/run.py builds this program, runs [setup] (and, traced,
   [phases]) in fresh processes, then [run], and prints the result line.
   [setup] runs in its own process because the compile memos are
   process-global and the benchmark must not clear them: set-up is only
   cold once per process.

   Every workload is a closed loop in one thread: the caller feeds the
   next input when the previous call returns, pass after pass over the
   same inputs.  The end-to-end figures are medians over passes of times
   calibrated against a probe of the host's speed ([Common.Calib]);
   perfbench/README.md says why.  The traced run
   ([--trace 1]) runs untraced passes for the first half of its time and
   traced passes for the second, then replays each layer's calls over the
   same generated stream.  Inputs come from [Gen] before any timing
   starts.  See perfbench/README.md for what each metric means. *)

open Wf_core
open Wf_scheduler
open Common

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;
  plant : bool;
}

type result = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;  (** inputs_per_s, input_iqm_us, input_tail_us *)
  layers : (string * float) list;  (** per-layer values this workload measured *)
  info : string list;  (** human-readable lines printed before the result *)
}

let fdiv a b = if b = 0.0 then 0.0 else a /. b
let idiv a b = fdiv (float_of_int a) (float_of_int b)
let ms_of_ns ns = float_of_int ns /. 1e6

(* Trace sink that only counts the engine's records. *)
let counting_sink () =
  let n = ref 0 in
  (Wf_obs.Trace.streaming (fun _ -> incr n), n)

(* Repeat [pass] for [ctx.seconds], with the calibration probes running;
   a traced run gives the first half to untraced passes and the second to
   traced ones.  At least one untraced and [min_traced] traced passes
   run. *)
let timed_passes ?(min_traced = 1) ctx pass =
  Calib.start ();
  let t0 = now_ns () in
  let plain_until = if ctx.traced then ctx.seconds /. 2.0 else ctx.seconds in
  let k = ref 0 in
  while !k = 0 || secs_since t0 < plain_until do
    pass ~traced:false ~run_id:!k;
    incr k
  done;
  if ctx.traced then begin
    let t1 = now_ns () in
    let first = !k in
    while !k < first + min_traced || secs_since t1 < ctx.seconds /. 2.0 do
      pass ~traced:true ~run_id:!k;
      incr k
    done
  end;
  Calib.stop ()

let gc_delta f =
  let q0 = Gc.quick_stat () in
  let r = f () in
  let q1 = Gc.quick_stat () in
  ( r,
    q1.Gc.minor_words -. q0.Gc.minor_words,
    q1.Gc.promoted_words -. q0.Gc.promoted_words,
    q1.Gc.major_collections - q0.Gc.major_collections )

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

(* Time [n] iterations of [f i]; ns per iteration. *)
let replay n f =
  let t0 = now_ns () in
  for i = 0 to n - 1 do
    f i
  done;
  fdiv (float_of_int (now_ns () - t0)) (float_of_int n)

(* --- fleet-saga ---------------------------------------------------------- *)

let saga_n = 100_000

(* The fleet scale suite's cadence: about 16 whole-arena frames per 10^5
   bindings' worth of journal appends. *)
let saga_cadence = max 1024 (saga_n / 16)

let templates_of text =
  List.map snd (Wf_lang.Elaborate.load_string text).Wf_lang.Elaborate.templates

let saga_engine templates =
  Fleet.create ~checkpoint_every:saga_cadence ~flow:Flow.default_config templates

let saga_sym (g : Gen.saga) i =
  Symbol.parametrized (if g.commit.(i) then "c" else "p") [ string_of_int g.tok.(i) ]

(* Exactly-once and p[j] before c[j] over the realized trace: the number
   of tokens that break either. *)
let saga_audit (g : Gen.saga) trace =
  let pos_p = Array.make g.n (-1) and pos_c = Array.make g.n (-1) in
  let bad = ref 0 in
  List.iteri
    (fun i (l : Literal.t) ->
      let s = Literal.symbol l in
      let slot =
        match (Symbol.base s, Symbol.args s) with
        | "p", [ a ] -> Option.map (fun j -> (pos_p, j)) (int_of_string_opt a)
        | "c", [ a ] -> Option.map (fun j -> (pos_c, j)) (int_of_string_opt a)
        | _ -> None
      in
      match slot with
      | Some (arr, j) when Literal.is_pos l && j >= 0 && j < g.n ->
          if arr.(j) >= 0 then incr bad else arr.(j) <- i
      | _ -> incr bad)
    trace;
  for j = 0 to g.n - 1 do
    if not (pos_p.(j) >= 0 && pos_c.(j) > pos_p.(j)) then incr bad
  done;
  !bad

(* Layer replays over the generated stream and the sequences the traced
   passes recorded.  Each returns ns per call of that layer. *)
let saga_layers (g : Gen.saga) eng ~depth ~ckpt_rows =
  let m = Array.length g.commit in
  let syms = Array.init m (saga_sym g) in
  let decode_ns =
    replay m (fun i ->
        let s = saga_sym g i in
        if g.commit.(i) then ignore (Sys.opaque_identity s)
        else ignore (Sys.opaque_identity (Literal.pos s)))
  in
  let commits = List.filter (fun i -> g.commit.(i)) (List.init m Fun.id) |> Array.of_list in
  let tick = ref 0 in
  let fl =
    Flow.create ~config:Flow.default_config ~num_sites:1 ~seed:1L
      ~stats:(Wf_obs.Metrics.create ()) ~now:(fun () -> float_of_int !tick) ()
  in
  let admit_ns =
    replay (Array.length commits) (fun k ->
        let i = commits.(k) in
        tick := i;
        ignore
          (Flow.admit fl ~site:0 ~actor:(Symbol.name syms.(i)) ~depth:depth.(i)
             ~first:(float_of_int i) ()))
  in
  (* Compiled tables of the positive templates, stepped per binding by
     every realized literal, in trace order. *)
  let slots =
    Fleet.guard_templates eng
    |> List.filter_map (fun (_, (a : Ptemplate.atom), gd) ->
           if a.Ptemplate.pol = Literal.Pos then Option.map (fun t -> (gd, t)) (Gtable.lookup gd)
           else None)
    |> Array.of_list
  in
  let ns = Array.length slots in
  let cols = Hashtbl.create 8 in
  Array.iteri
    (fun si (gd, tbl) ->
      Symbol.Set.iter
        (fun s ->
          List.iter
            (fun pol ->
              Option.iter
                (fun c -> Hashtbl.add cols (Symbol.base s, pol) (si, c))
                (Gtable.occ_input tbl s pol))
            [ Literal.Pos; Literal.Neg ])
        (Guard.symbols gd))
    slots;
  let steps =
    List.concat_map
      (fun (l : Literal.t) ->
        let s = Literal.symbol l in
        match Symbol.args s with
        | [ a ] -> (
            match int_of_string_opt a with
            | Some j ->
                List.map (fun (si, c) -> (si, j, c)) (Hashtbl.find_all cols (Symbol.base s, l.Literal.pol))
            | None -> [])
        | _ -> [])
      (Fleet.trace eng)
    |> Array.of_list
  in
  let state = Array.make (max 1 (ns * g.n)) 0 in
  Array.iter (fun (si, j, _) -> state.((j * ns) + si) <- Gtable.initial (snd slots.(si))) steps;
  let step_ns =
    replay (Array.length steps) (fun k ->
        let si, j, c = steps.(k) in
        let cell = (j * ns) + si in
        state.(cell) <- Gtable.step_input (snd slots.(si)) state.(cell) c)
  in
  (* The symbolic fallback fires on a guard whose table is still Open: a
     parked commit, nothing of its binding decided yet. *)
  let sym_ns =
    match
      List.find_opt (fun (_, t) -> Gtable.verdict t (Gtable.initial t) = Gtable.Open) (Array.to_list slots)
    with
    | None -> 0.0
    | Some (gd, _) ->
        let reserved = Guard.symbols gd in
        replay (Array.length commits) (fun _ ->
            ignore (Sys.opaque_identity (Knowledge.status ~reserved Knowledge.empty gd)))
  in
  let j = Wf_store.Journal.create ~checkpoint_every:max_int () in
  let append_ns = replay m (fun i -> Wf_store.Journal.append j syms.(i)) in
  (* Whole-arena frames at the run's checkpoint sizes: one fate column
     per event base, holding a seqno-sized word, plus one small table
     state per positive template. *)
  let width = 2 + ns in
  let frames =
    List.map
      (fun rows ->
        let rows = max 1 rows in
        let a = Arena.create ~capacity:rows ~width () in
        Arena.ensure a (rows - 1);
        for r = 0 to rows - 1 do
          for c = 0 to width - 1 do
            Arena.set a r c (if c < 2 then (((2 * r) + c) lsl 3) lor 5 else c)
          done
        done;
        let buf = Buffer.create (rows * width * 3) in
        let t0 = now_ns () in
        Arena.encode buf a;
        (ms_of_ns (now_ns () - t0), buf))
      ckpt_rows
  in
  let decode_ms =
    match List.rev frames with
    | [] -> 0.0
    | (_, buf) :: _ ->
        let r = Wf_store.Binio.reader (Buffer.contents buf) in
        let t0 = now_ns () in
        ignore (Sys.opaque_identity (Arena.decode r));
        ms_of_ns (now_ns () - t0)
  in
  (* The fleet's own metric updates, by name, as one commit (attempt,
     fallback, parked peak) and one prepare (occurrence, two table-step
     batches: its own and the retried commit's) issue them. *)
  let mt = Wf_obs.Metrics.create () in
  let upd_ns =
    replay m (fun i ->
        if g.commit.(i) then begin
          Wf_obs.Metrics.incr mt "fleet_attempts";
          Wf_obs.Metrics.incr mt "fleet_symbolic_evals";
          Wf_obs.Metrics.gauge_max mt "fleet_parked_peak" (float_of_int depth.(i))
        end
        else begin
          Wf_obs.Metrics.incr mt "fleet_occurred";
          Wf_obs.Metrics.add mt "fleet_table_steps" 1;
          Wf_obs.Metrics.add mt "fleet_table_steps" 1
        end)
    /. 3.0
  in
  (decode_ns, admit_ns, step_ns, sym_ns, append_ns, frames, decode_ms, upd_ns)

let fleet_saga ctx =
  let g = Gen.saga ~seed:ctx.seed ~n:saga_n ~plant:ctx.plant in
  let templates = templates_of Gen.saga_spec in
  let m = Array.length g.commit in
  let lat = samples m and fac = samples m and att_lat = samples m and occ_lat = samples m in
  let depth = Array.make m 0 in
  let ckpt_rows = ref [] in
  let traced_rates = ref [] and wall_rates = ref [] and bytes = ref [] in
  let plain = Plain.create () in
  let minor = ref [] and promoted = ref [] and majors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let last = ref None and parked = ref 0 in
  let records = ref 0 and traced_passes = ref 0 in
  let cap = 99.99 in
  let n_decode = Spans.name_id "decode" and n_att = Spans.name_id "fleet.attempt" in
  let n_occ = Spans.name_id "fleet.occurred" in
  let pass ~traced ~run_id =
    let live0 = live_words () in
    let eng = saga_engine templates in
    (* The first traced pass attaches the engine's own sink and counts
       its records; the engine builds each record inside the call, so the
       per-kind call times come from the later traced passes only. *)
    let first_traced = traced && !traced_passes = 0 in
    let sink, nrec = counting_sink () in
    if first_traced then Fleet.set_tracer eng (Some sink);
    let parent = if traced then Spans.open_ ~name:"pass" ~parent:(-1) ~run_id else -1 in
    lat.len <- 0;
    fac.len <- 0;
    let bad = ref 0 in
    parked := 0;
    let n0 = !Calib.count and s0 = !Calib.sum in
    let wall, mw, pw, mj =
      gc_delta (fun () ->
          let pass_p0 = !Calib.paused in
          let t0 = now_ns () in
          for i = 0 to m - 1 do
            if first_traced then begin
              depth.(i) <- Fleet.parked_count eng;
              if i > 0 && i mod saga_cadence = 0 then ckpt_rows := Fleet.bindings eng :: !ckpt_rows
            end;
            let p0 = !Calib.paused in
            let a = now_ns () in
            let sym = saga_sym g i in
            let b = if traced then now_ns () else a in
            (if g.commit.(i) then
               match Fleet.attempt eng sym with
               | Fleet.Parked -> incr parked
               | Fleet.Accepted -> ()
               | Fleet.Already | Fleet.Rejected | Fleet.Busy _ -> incr bad
             else Fleet.occurred eng (Literal.pos sym));
            let c = now_ns () in
            if traced then begin
              ignore (Spans.add ~name:n_decode ~start:a ~stop:b ~parent ~run_id);
              let name, buf = if g.commit.(i) then (n_att, att_lat) else (n_occ, occ_lat) in
              ignore (Spans.add ~name ~start:b ~stop:c ~parent ~run_id);
              if not first_traced then push buf (float_of_int (Calib.net ~p0 ~t0:b c))
            end
            else begin
              push lat (float_of_int (Calib.net ~p0 ~t0:a c));
              push fac !Calib.current
            end
          done;
          float_of_int (Calib.net ~p0:pass_p0 ~t0 (now_ns ())) /. 1e9)
    in
    Spans.close parent;
    (* Calibrated whole-pass rate, for the tracing overhead. *)
    let wall_rate = float_of_int m /. (wall *. Calib.factor_since n0 s0) in
    let live1 = live_words () in
    if traced then begin
      if not first_traced then traced_rates := wall_rate :: !traced_rates;
      records := !records + !nrec;
      incr traced_passes
    end
    else begin
      Plain.offer plain ~cap lat fac;
      wall_rates := wall_rate :: !wall_rates;
      bytes := (float_of_int ((live1 - live0) * 8) /. float_of_int g.n) :: !bytes;
      minor := (mw /. float_of_int m) :: !minor;
      promoted := (pw /. float_of_int m) :: !promoted;
      majors := float_of_int mj :: !majors
    end;
    if Fleet.parked_count eng <> 0 then incr bad;
    bad := !bad + saga_audit g (Fleet.trace eng);
    attempted := !attempted + m;
    failed := !failed + !bad;
    last := Some eng
  in
  timed_passes ~min_traced:2 ctx pass;
  let eng = Option.get !last in
  (* One recovery of the last engine, checked state for state. *)
  let t0 = now_ns () in
  let recovered = Fleet.recover eng in
  let recover_ms = ms_of_ns (now_ns () - t0) in
  incr attempted;
  if not (Fleet.equal_state eng recovered) then incr failed;
  (* The fleet scale suite's latency figure, for comparison: p99 of the
     enabling inputs (the prepares) of the last untraced pass, raw. *)
  let enabling = samples g.n in
  for i = 0 to lat.len - 1 do
    if not g.commit.(i) then push enabling lat.data.(i)
  done;
  let info =
    [
      Printf.sprintf
        "fleet-saga: %d bindings, %d inputs per pass, %d untraced passes; figures are \
         calibrated medians over passes; tail = p%g of %d inputs"
        g.n m (List.length plain.Plain.rate) (tail_level ~cap m) m;
      Printf.sprintf
        "  bytes_per_binding %.2f B   recover_ms %.3f ms   p99 of enabling inputs %.3f us (raw)"
        (median_of !bytes) recover_ms (sample_pct enabling 99.0 /. 1e3);
      "  inputs_per_s by pass (min / median / max): " ^ spread_of plain.Plain.rate;
      Plain.line plain;
    ]
  in
  let layers =
    if not ctx.traced then []
    else begin
      let stats = Fleet.stats eng in
      let cnt = Wf_obs.Metrics.count stats in
      let attempts = cnt "fleet_attempts" and occurred = cnt "fleet_occurred" in
      let table_steps = cnt "fleet_table_steps" and sym_evals = cnt "fleet_symbolic_evals" in
      let realized = List.length (Fleet.trace eng) in
      let decode_ns, admit_ns, step_ns, sym_ns, append_ns, frames, decode_ms, upd_ns =
        saga_layers g eng ~depth ~ckpt_rows:(List.rev !ckpt_rows)
      in
      (* One update per call, per realized literal (table steps), per
         fallback and per newly parked attempt. *)
      let updates = attempts + occurred + realized + sym_evals + !parked in
      let fm = float_of_int m in
      let engine_ns =
        let sum s = Array.fold_left ( +. ) 0.0 (Array.sub s.data 0 s.len) in
        fdiv (sum att_lat +. sum occ_lat) (float_of_int (att_lat.len + occ_lat.len))
      in
      let ckpt_ns = List.fold_left (fun acc (ms, _) -> acc +. (ms *. 1e6)) 0.0 frames in
      let explained =
        (admit_ns *. float_of_int attempts /. fm)
        +. (step_ns *. float_of_int table_steps /. fm)
        +. (sym_ns *. float_of_int sym_evals /. fm)
        +. append_ns +. (ckpt_ns /. fm)
        +. (upd_ns *. float_of_int updates /. fm)
      in
      let untraced = Plain.raw_rate plain in
      [
        ("decode.ns_per_input", decode_ns);
        ("fleet.attempt_ns_p50", sample_pct att_lat 50.0);
        ("fleet.attempt_ns_tail", sample_pct att_lat (tail_level ~cap att_lat.len));
        ("fleet.occurred_ns_p50", sample_pct occ_lat 50.0);
        ("fleet.occurred_ns_tail", sample_pct occ_lat (tail_level ~cap occ_lat.len));
        ("fleet.decisions_per_input", idiv (Fleet.work eng) m);
        ("fleet.table_steps", float_of_int table_steps);
        ("fleet.symbolic_evals", float_of_int sym_evals);
        ("fleet.symbolic_share", idiv sym_evals (table_steps + sym_evals));
        ("fleet.state_words_per_binding", idiv (Fleet.state_words eng) (Fleet.bindings eng));
        ( "fleet.parked_peak",
          Option.value ~default:0.0 (Wf_obs.Metrics.gauge stats "fleet_parked_peak") );
        ("fleet.unattributed_ns", engine_ns -. explained);
        ("gtable.step_ns", step_ns);
        ("guard.symbolic_eval_ns", sym_ns);
        ("flow.admit_ns", admit_ns);
        ("flow.shed", float_of_int (cnt "flow_shed"));
        ("journal.append_ns", append_ns);
        ("journal.checkpoints", float_of_int (List.length frames));
        ("journal.checkpoint_ms_max", List.fold_left (fun a (ms, _) -> Float.max a ms) 0.0 frames);
        ("arena.decode_ms", decode_ms);
        ("metrics.update_ns", upd_ns);
        ("metrics.updates_per_input", float_of_int updates /. fm);
        ("gc.minor_words_per_input", median_of !minor);
        ("gc.promoted_words_per_input", median_of !promoted);
        ("gc.major_collections", median_of !majors);
        ( "trace.overhead_pct",
          100.0 *. (1.0 -. fdiv (median_of !traced_rates) (median_of !wall_rates)) );
        ("trace.engine_records", float_of_int !records);
        ("bytes_per_binding", median_of !bytes);
        ("recover_ms", recover_ms);
        ("events_per_s", untraced *. float_of_int realized /. fm);
      ]
    end
  in
  { attempted = !attempted; failed = !failed; e2e = Plain.e2e plain; layers; info }

(* --- param-mutex --------------------------------------------------------- *)

let mutex_rounds = 20

(* Interleavings per pass: the cost of a call depends on the order the
   tasks move in, so each pass averages several seeded orders. *)
let mutex_interleavings = 32

(* No overlapping critical sections in the realized trace. *)
let mutex_overlaps trace =
  let inside = [| false; false |] and bad = ref 0 in
  List.iter
    (fun (l : Literal.t) ->
      if Literal.is_pos l then
        match Symbol.base (Literal.symbol l) with
        | "b_t1" ->
            if inside.(1) then incr bad;
            inside.(0) <- true
        | "b_t2" ->
            if inside.(0) then incr bad;
            inside.(1) <- true
        | "e_t1" -> inside.(0) <- false
        | "e_t2" -> inside.(1) <- false
        | _ -> ())
    trace;
  !bad

let param_mutex ctx =
  let g = Gen.mutex ~seed:ctx.seed ~rounds:mutex_rounds ~interleavings:mutex_interleavings in
  let templates = templates_of Gen.mutex_spec in
  let r = g.Gen.rounds in
  let enter = [| "b_t1"; "b_t2" |] and leave = [| "e_t1"; "e_t2" |] in
  let lat = samples 4096 and fac = samples 4096 in
  let traced_rates = ref [] and plain = Plain.create () in
  let words = ref [] and late = ref [] and events = ref [] in
  let minor = ref [] and promoted = ref [] and majors = ref [] in
  let per_decision = ref [] and per_attempt = ref [] and parked_share = ref [] in
  let attempted = ref 0 and failed = ref 0 and records = ref 0 and traced_passes = ref 0 in
  let last = ref None in
  let cap = 99.0 in
  let n_att = Spans.name_id "param.attempt" in
  (* One interleaving: a fresh engine, both tasks through [r] rounds. *)
  let interleaving picks ~traced ~parent ~run_id =
    let npicks = Bytes.length picks in
    (* Memory is probed on the first pass only: a probe compacts the heap,
       which costs more than an interleaving. *)
    let probe = run_id = 0 in
    let live0 = if probe then live_words () else 0 in
    let eng = Param_sched.create templates in
    let sink, nrec = counting_sink () in
    if traced then Param_sched.set_tracer eng (Some sink);
    let round = [| 0; 0 |] and inside = [| false; false |] in
    let step = ref 0 and calls = ref 0 and parked = ref 0 and bad = ref 0 and busy = ref 0 in
    let start = lat.len in
    while (round.(0) < r || round.(1) < r) && !step < 4 * npicks do
      let i = if Bytes.get picks (!step mod npicks) = '1' then 1 else 0 in
      let i = if round.(i) >= r then 1 - i else i in
      incr step;
      let k = round.(i) + 1 in
      let p0 = !Calib.paused in
      let a = now_ns () in
      let sym =
        Symbol.parametrized (if inside.(i) then leave.(i) else enter.(i)) [ string_of_int k ]
      in
      let out = Param_sched.attempt eng sym in
      let c = now_ns () in
      let d = Calib.net ~p0 ~t0:a c in
      busy := !busy + d;
      if traced then ignore (Spans.add ~name:n_att ~start:a ~stop:c ~parent ~run_id);
      push lat (float_of_int d);
      push fac !Calib.current;
      incr calls;
      match out with
      | Param_sched.Accepted | Param_sched.Already ->
          if inside.(i) then begin
            round.(i) <- k;
            inside.(i) <- false
          end
          else inside.(i) <- true
      | Param_sched.Parked -> incr parked
      | Param_sched.Rejected | Param_sched.Busy _ -> incr bad
    done;
    let live1 = if probe then live_words () else 0 in
    let trace = Param_sched.trace eng in
    records := !records + !nrec;
    if not traced then begin
      if probe then words := float_of_int (live1 - live0) :: !words;
      let n = lat.len - start in
      let decile = max 1 (n / 10) in
      let mean_of_slice from len =
        let s = ref 0.0 in
        for k = from to from + len - 1 do
          s := !s +. lat.data.(k)
        done;
        !s /. float_of_int len
      in
      late := (mean_of_slice (lat.len - decile) decile /. mean_of_slice start decile) :: !late;
      let work = Param_sched.work eng in
      per_decision := idiv !busy work :: !per_decision;
      per_attempt := idiv work !calls :: !per_attempt;
      parked_share := idiv !parked !calls :: !parked_share
    end;
    if round.(0) < r || round.(1) < r then incr bad;
    bad := !bad + mutex_overlaps trace;
    attempted := !attempted + !calls;
    failed := !failed + !bad;
    last := Some eng;
    (!calls, List.length trace)
  in
  let pass ~traced ~run_id =
    let parent = if traced then Spans.open_ ~name:"pass" ~parent:(-1) ~run_id else -1 in
    lat.len <- 0;
    fac.len <- 0;
    let calls = ref 0 and realized = ref 0 in
    let (), mw, pw, mj =
      gc_delta (fun () ->
          Array.iter
            (fun picks ->
              let c, e = interleaving picks ~traced ~parent ~run_id in
              calls := !calls + c;
              realized := !realized + e)
            g.Gen.picks)
    in
    let calls = !calls and realized = !realized in
    Spans.close parent;
    (* Engine time only: the set-up and the memory probes between
       interleavings are not part of a call. *)
    let wall = Array.fold_left ( +. ) 0.0 (Array.sub lat.data 0 lat.len) /. 1e9 in
    if traced then begin
      traced_rates := (float_of_int calls /. cal_seconds lat fac) :: !traced_rates;
      incr traced_passes
    end
    else begin
      Plain.offer plain ~cap lat fac;
      events := (float_of_int realized /. wall) :: !events;
      minor := (mw /. float_of_int calls) :: !minor;
      promoted := (pw /. float_of_int calls) :: !promoted;
      majors := float_of_int mj :: !majors
    end
  in
  timed_passes ctx pass;
  let eng = Option.get !last in
  let t0 = now_ns () in
  let recovered = Param_sched.recover eng in
  let recover_ms = ms_of_ns (now_ns () - t0) in
  incr attempted;
  if not (Param_sched.equal_state eng recovered) then incr failed;
  let words_per_round = median_of !words /. float_of_int r in
  let info =
    [
      Printf.sprintf
        "param-mutex: %d interleavings of %d rounds per pass, %d untraced passes; figures are \
         calibrated medians over passes; tail = p%g of a pass's calls"
        mutex_interleavings r (List.length plain.Plain.rate) cap;
      Printf.sprintf "  bytes_per_binding %.1f B (per round token)   recover_ms %.3f ms"
        (words_per_round *. 8.0) recover_ms;
      "  inputs_per_s by pass (min / median / max): " ^ spread_of plain.Plain.rate;
      Plain.line plain;
    ]
  in
  let layers =
    if not ctx.traced then []
    else
      [
        ("param.decisions_per_attempt", median_of !per_attempt);
        ("param.ns_per_decision", median_of !per_decision);
        ("param.parked_share", median_of !parked_share);
        ("param.late_over_early", median_of !late);
        ("param.live_words_per_round", words_per_round);
        ("gc.minor_words_per_input", median_of !minor);
        ("gc.promoted_words_per_input", median_of !promoted);
        ("gc.major_collections", median_of !majors);
        ( "trace.overhead_pct",
          100.0 *. (1.0 -. fdiv (median_of !traced_rates) (median_of plain.Plain.rate)) );
        ("trace.engine_records", idiv !records (!traced_passes * mutex_interleavings));
        ("bytes_per_binding", words_per_round *. 8.0);
        ("recover_ms", recover_ms);
        ("events_per_s", median_of !events);
      ]
  in
  { attempted = !attempted; failed = !failed; e2e = Plain.e2e plain; layers; info }

(* --- dist-travel ---------------------------------------------------------- *)

let travel_customers = 20

(* Seeded runs per pass.  One run is one input; its tail is p90, so a pass
   of a hundred runs leaves ten samples beyond it. *)
let travel_k = 100

let assim_index = function
  | Wf_obs.Trace.Enabled -> 0
  | Wf_obs.Trace.Parked -> 1
  | Wf_obs.Trace.Reduced -> 2
  | Wf_obs.Trace.Rejected -> 3
  | Wf_obs.Trace.Forced -> 4

let dist_travel ctx =
  let text = Gen.travel ~seed:ctx.seed ~customers:travel_customers in
  let seeds = Gen.run_seeds ~seed:ctx.seed ~k:travel_k in
  let def = (Wf_lang.Elaborate.load_string text).Wf_lang.Elaborate.def in
  let faults = { Wf_sim.Netsim.no_faults with drop_rate = 0.05; crash_on_deliver = 0.02 } in
  let runs = samples travel_k and fac = samples travel_k and run_ms = samples 1024 in
  let traced_rates = ref [] and event_rates = ref [] and plain = Plain.create () in
  let cap = 90.0 in
  let minor = ref [] and promoted = ref [] and majors = ref [] in
  let attempted = ref 0 and failed = ref 0 and records = ref 0 in
  let assim = Array.make 5 0 in
  (* Every pass replays the same K seeds, so the first pass's counts
     stand for all of them. *)
  let first = ref None in
  let n_run = Spans.name_id "dist.run" in
  let pass ~traced ~run_id =
    let parent = if traced then Spans.open_ ~name:"pass" ~parent:(-1) ~run_id else -1 in
    let events = ref 0 and stats = ref (Wf_obs.Metrics.create ()) and makespan = ref 0.0 in
    runs.len <- 0;
    fac.len <- 0;
    let n0 = !Calib.count and s0 = !Calib.sum in
    let wall, mw, pw, mj =
      gc_delta (fun () ->
          let pass_p0 = !Calib.paused in
          let t_pass = now_ns () in
          Array.iter
            (fun seed ->
              let sink = if traced then Some (Wf_obs.Trace.collector ()) else None in
              let config =
                {
                  Event_sched.default_config with
                  seed;
                  faults;
                  flow = Some Flow.default_config;
                  tracer = Option.map fst sink;
                }
              in
              let n0 = !Calib.count and s0 = !Calib.sum and p0 = !Calib.paused in
              let t0 = now_ns () in
              let res = Event_sched.run ~config def in
              let t1 = now_ns () in
              let d = Calib.net ~p0 ~t0 t1 in
              if traced then ignore (Spans.add ~name:n_run ~start:t0 ~stop:t1 ~parent ~run_id)
              else begin
                push run_ms (ms_of_ns d);
                push runs (float_of_int d);
                push fac (Calib.factor_since n0 s0)
              end;
              events := !events + List.length res.Event_sched.trace;
              makespan := !makespan +. res.Event_sched.makespan;
              stats := Wf_obs.Metrics.merge !stats res.Event_sched.stats;
              incr attempted;
              if not (res.Event_sched.satisfied && res.Event_sched.violations = []) then
                incr failed;
              Option.iter
                (fun (_, get) ->
                  List.iter
                    (fun (rc : Wf_obs.Trace.record) ->
                      incr records;
                      match rc.Wf_obs.Trace.kind with
                      | Wf_obs.Trace.Assim { outcome; _ } ->
                          let k = assim_index outcome in
                          assim.(k) <- assim.(k) + 1
                      | _ -> ())
                    (get ()))
                sink)
            seeds;
          float_of_int (Calib.net ~p0:pass_p0 ~t0:t_pass (now_ns ())) /. 1e9)
    in
    Spans.close parent;
    if !first = None then first := Some (!events, !stats, !makespan);
    if traced then
      traced_rates := (float_of_int travel_k /. (wall *. Calib.factor_since n0 s0)) :: !traced_rates
    else begin
      Plain.offer plain ~cap runs fac;
      event_rates := (float_of_int !events /. wall) :: !event_rates;
      minor := (mw /. float_of_int !events) :: !minor;
      promoted := (pw /. float_of_int !events) :: !promoted;
      majors := float_of_int mj :: !majors
    end
  in
  timed_passes ctx pass;
  let events, stats, makespan = Option.get !first in
  let cnt = Wf_obs.Metrics.count stats in
  let per_event x = idiv x events in
  let k = float_of_int travel_k in
  let events_per_s = median_of !event_rates in
  let info =
    [
      Printf.sprintf
        "dist-travel: %d customers, %d seeded runs per pass, %d untraced passes; an input is \
         one seeded run, its latency the run's wall time; figures are calibrated medians over \
         passes; tail = p%g of %d runs"
        travel_customers travel_k (List.length plain.Plain.rate) (tail_level ~cap travel_k) travel_k;
      Printf.sprintf "  events_per_s %.0f   makespan_vt %.3f   msgs_per_event %.4f" events_per_s
        (makespan /. k) (per_event (cnt "messages_sent"));
      "  inputs_per_s by pass (min / median / max): " ^ spread_of plain.Plain.rate;
      Plain.line plain;
    ]
  in
  let e2e = Plain.e2e plain in
  let traced_passes = List.length !traced_rates in
  let layers =
    if not ctx.traced then []
    else
      [
        ("flow.shed", float_of_int (cnt "flow_shed"));
        ("flow.sends_blocked", float_of_int (cnt "flow_sends_blocked"));
        ("flow.credit_overrides", float_of_int (cnt "flow_credit_overrides"));
        ("flow.mailbox_rejects", float_of_int (cnt "flow_mailbox_rejects"));
        ("net.sent_per_event", per_event (cnt "messages_sent"));
        ("net.dropped", float_of_int (cnt "net_drops"));
        ("net.crashes", float_of_int (cnt "net_crashes"));
        ("chan.retransmits_per_event", per_event (cnt "chan_retransmits"));
        ("actor.assim_enabled", idiv assim.(0) traced_passes);
        ("actor.assim_parked", idiv assim.(1) traced_passes);
        ("actor.assim_reduced", idiv assim.(2) traced_passes);
        ("actor.assim_rejected", idiv assim.(3) traced_passes);
        ("actor.parked_evaluations", float_of_int (cnt "parked_evaluations"));
        ("actor.recovery_reannounces", float_of_int (cnt "recovery_reannounces"));
        ("dist.run_ms_p50", sample_pct run_ms 50.0);
        ("dist.run_ms_tail", sample_pct run_ms (tail_level ~cap run_ms.len));
        ("gc.minor_words_per_input", median_of !minor);
        ("gc.promoted_words_per_input", median_of !promoted);
        ("gc.major_collections", median_of !majors);
        ( "trace.overhead_pct",
          100.0 *. (1.0 -. fdiv (median_of !traced_rates) (median_of plain.Plain.rate)) );
        ("trace.engine_records", idiv !records traced_passes);
        ("events_per_s", events_per_s);
        ("makespan_vt", makespan /. k);
        ("msgs_per_event", per_event (cnt "messages_sent"));
      ]
  in
  { attempted = !attempted; failed = !failed; e2e; layers; info }

(* --- mc-indep ------------------------------------------------------------ *)

(* The pinned DPOR state count of specs/mc_indep.wf at crash depth 1. *)
let mc_indep_states = 178_556

let mc_indep ctx =
  let def = (Wf_lang.Elaborate.load_string Gen.mc_indep_spec).Wf_lang.Elaborate.def in
  (* The planted fault: c_t2 may commit at any time, breaking the commit
     order of t1 before t2. *)
  let guard_overrides =
    if ctx.plant then [ (Literal.pos (Symbol.make "c_t2"), Guard.top) ] else []
  in
  let lat = samples 64 and fac = samples 64 and traced_lat = samples 64 in
  let minor = ref [] and promoted = ref [] and majors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let last = ref None in
  let n_check = Spans.name_id "mc.check" in
  let pass ~traced ~run_id =
    let n0 = !Calib.count and s0 = !Calib.sum and p0 = !Calib.paused in
    let (r, t0, t1), mw, pw, mj =
      gc_delta (fun () ->
          let t0 = now_ns () in
          let r = Wf_check.Mc.check ~crash_depth:1 ~guard_overrides def in
          (r, t0, now_ns ()))
    in
    let us = float_of_int (Calib.net ~p0 ~t0 t1) /. 1e3 in
    if traced then begin
      ignore (Spans.add ~name:n_check ~start:t0 ~stop:t1 ~parent:(-1) ~run_id);
      push traced_lat (us *. Calib.factor_since n0 s0)
    end
    else begin
      push lat us;
      push fac (Calib.factor_since n0 s0);
      let st = float_of_int r.Wf_check.Mc.r_states in
      minor := (mw /. st) :: !minor;
      promoted := (pw /. st) :: !promoted;
      majors := float_of_int mj :: !majors
    end;
    incr attempted;
    if
      not
        (r.Wf_check.Mc.r_complete
        && r.Wf_check.Mc.r_divergences = []
        && r.Wf_check.Mc.r_states = mc_indep_states)
    then incr failed;
    last := Some r
  in
  timed_passes ctx pass;
  let r = Option.get !last in
  (* One check is one input: the interquartile mean of the checks, the
     slowest check, and checks completed per second of checking,
     calibrated. *)
  let checks = List.init lat.len (fun i -> lat.data.(i)) in
  let cal = List.init lat.len (fun i -> lat.data.(i) *. fac.data.(i)) in
  let p50 = median_of checks in
  let e2e =
    [
      ("inputs_per_s", 1e6 *. float_of_int lat.len /. List.fold_left ( +. ) 0.0 cal);
      ("input_iqm_us", iqm (Array.of_list cal) lat.len);
      ("input_tail_us", List.fold_left Float.max 0.0 cal);
    ]
  in
  let info =
    [
      Printf.sprintf
        "mc-indep: an input is one exhaustive check at crash depth 1; %d untraced checks; \
         iqm is the interquartile mean of the checks, the tail the slowest, both calibrated"
        lat.len;
      Printf.sprintf "  verify_s %.4f s   states %d   divergences %d" (p50 /. 1e6)
        r.Wf_check.Mc.r_states (List.length r.Wf_check.Mc.r_divergences);
      "  calibrated check seconds (min / median / max): "
      ^ spread_of (List.map (fun us -> us /. 1e6) cal);
      "  raw check seconds (min / median / max): " ^ spread_of (List.map (fun us -> us /. 1e6) checks);
    ]
  in
  let layers =
    if not ctx.traced then []
    else
      let states = r.Wf_check.Mc.r_states in
      [
        ("mc.states", float_of_int states);
        ("mc.transitions", float_of_int r.Wf_check.Mc.r_transitions);
        ("mc.dedup_hits", float_of_int r.Wf_check.Mc.r_dedup_hits);
        ("mc.sleep_skips", float_of_int r.Wf_check.Mc.r_sleep_skips);
        ("mc.recoveries", float_of_int r.Wf_check.Mc.r_recoveries);
        ("mc.ns_per_state", p50 *. 1e3 /. float_of_int states);
        ("mc.dedup_share", idiv r.Wf_check.Mc.r_dedup_hits states);
        ("gc.minor_words_per_input", median_of !minor);
        ("gc.promoted_words_per_input", median_of !promoted);
        ("gc.major_collections", median_of !majors);
        ("trace.overhead_pct",
          100.0
          *. (1.0 -. fdiv (median_of cal) (median_of (List.init traced_lat.len (fun i -> traced_lat.data.(i)))))
        );
        ("verify_s", p50 /. 1e6);
      ]
  in
  { attempted = !attempted; failed = !failed; e2e; layers; info }

(* --- set-up -------------------------------------------------------------- *)

let spec_text workload seed =
  match workload with
  | "fleet-saga" -> Gen.saga_spec
  | "param-mutex" -> Gen.mutex_spec
  | "dist-travel" -> Gen.travel ~seed ~customers:travel_customers
  | "mc-indep" -> Gen.mc_indep_spec
  | w -> failwith ("unknown workload " ^ w)

let deps_of (r : Wf_lang.Elaborate.result) = Wf_tasks.Workflow_def.dependencies r.def

(* Spec text to an engine ready for its first input, cold.  The ground
   engines build their actors from the compiled spec on every run, so
   their set-up ends once every guard is synthesized and its table
   compiled.  The probes run after it, so that it stays cold, and
   calibrate it. *)
let setup workload seed =
  let text = spec_text workload seed in
  let t0 = now_ns () in
  let r = Wf_lang.Elaborate.load_string text in
  let t1 = now_ns () in
  let templates = List.map snd r.Wf_lang.Elaborate.templates in
  (match workload with
  | "fleet-saga" -> ignore (Sys.opaque_identity (saga_engine templates))
  | "param-mutex" -> ignore (Sys.opaque_identity (Param_sched.create templates))
  | _ ->
      let c = Compile.compile (deps_of r) in
      List.iter (fun p -> ignore (Gtable.lookup p.Compile.guard)) (Compile.plans c));
  let t2 = now_ns () in
  Calib.init ();
  [
    ("setup_s", float_of_int (t2 - t0) *. !Calib.current /. 1e9);
    ("lang.parse_ms", ms_of_ns (t1 - t0));
  ]

(* The compile phases alone, cold: guard synthesis (as the engines run
   it), then a table compilation of every synthesized guard. *)
let phases workload seed =
  let r = Wf_lang.Elaborate.load_string (spec_text workload seed) in
  let t0 = now_ns () in
  let guards =
    match workload with
    | "fleet-saga" | "param-mutex" ->
        List.concat_map
          (fun (_, dep) ->
            let skel = Ptemplate.skeleton dep in
            List.map
              (fun (a : Ptemplate.atom) ->
                Synth.guard skel
                  {
                    Literal.sym = Ptemplate.symbol_of_atom Ptemplate.var_marker a;
                    pol = a.Ptemplate.pol;
                  })
              (Ptemplate.atoms dep))
          r.Wf_lang.Elaborate.templates
    | _ -> List.map (fun p -> p.Compile.guard) (Compile.plans (Compile.compile (deps_of r)))
  in
  let t1 = now_ns () in
  List.iter (fun g -> ignore (Sys.opaque_identity (Gtable.compile g))) guards;
  let t2 = now_ns () in
  [
    ("compile.ms", ms_of_ns (t1 - t0));
    ("compile.guard_size", float_of_int (List.fold_left (fun a g -> a + Guard.size g) 0 guards));
    ("gtable.compile_ms", ms_of_ns (t2 - t1));
  ]

(* --- command line -------------------------------------------------------- *)

let workloads =
  [
    ("fleet-saga", fleet_saga);
    ("param-mutex", param_mutex);
    ("dist-travel", dist_travel);
    ("mc-indep", mc_indep);
  ]

let print_pairs pairs = print_endline (pairs_json pairs)

let () =
  let args = Array.to_list Sys.argv in
  let opt name default =
    let rec go = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let mode = match args with _ :: m :: _ -> m | _ -> "" in
  let workload = opt "--workload" "" in
  let seed = int_of_string (opt "--seed" "1") in
  match (mode, List.assoc_opt workload workloads) with
  | _, None ->
      prerr_endline "usage: main.exe setup|phases|run --workload W --seed N [--seconds T] [--trace 0|1] [--plant]";
      exit 2
  | "setup", Some _ -> print_pairs (setup workload seed)
  | "phases", Some _ -> print_pairs (phases workload seed)
  | "run", Some f ->
      let ctx =
        {
          seed;
          seconds = float_of_string (opt "--seconds" "10");
          traced = opt "--trace" "0" = "1";
          plant = List.mem "--plant" args;
        }
      in
      let r = f ctx in
      List.iter print_endline r.info;
      Printf.printf "calibration: %d probes, mean %.4f ms (reference %.4f ms)\n" !Calib.count
        (float_of_int !Calib.sum /. float_of_int (max 1 !Calib.count) /. 1e6)
        (Calib.ref_ns /. 1e6);
      Printf.printf "ocaml_version %s\n" Sys.ocaml_version;
      let metrics =
        if ctx.traced then ("failed_share", idiv r.failed r.attempted) :: r.layers else r.e2e
      in
      if ctx.traced then begin
        (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
        Spans.write (Printf.sprintf "perfbench/out/spans-%s-%d.jsonl" workload seed);
        Printf.printf "spans: %d kept, %d dropped, written to perfbench/out/\n" !Spans.len !Spans.dropped
      end;
      Printf.printf "RESULT {\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
        (r.failed = 0) r.attempted r.failed (pairs_json metrics)
  | _ ->
      prerr_endline ("unknown mode " ^ mode);
      exit 2
