open Wf_core
open Wf_tasks

type occurrence = { lit : Literal.t; seqno : int; time : float }

type transport = {
  send : src:Symbol.t -> dst:Symbol.t -> priority:bool -> Messages.t -> unit;
  settle : unit -> unit;
  now : unit -> float;
  agent_ready : Agent.t -> unit;
}

type agent_table = {
  agents : (string, Agent.t) Hashtbl.t;
  agent_of_symbol : (Symbol.t, string) Hashtbl.t;
  instances : string list;
}

type jstate = {
  mutable j : (Actor.input, Actor.snapshot) Wf_store.Journal.t;
  mutable depth : int;
}

type t = {
  wf : Workflow_def.t;
  compiled : Compile.t;
  stats : Wf_obs.Metrics.t;
  replay_stats : Wf_obs.Metrics.t;
  tracer : Wf_obs.Trace.sink option;
  on_event : occurrence -> unit;
  mutable transport : transport;
  tasks : agent_table;
  symbols : Symbol.t list;
  actors : (Symbol.t, Actor.t) Hashtbl.t;
  actor_seeds : (Symbol.t, unit -> Actor.t) Hashtbl.t;
  ctxs : (Symbol.t, Actor.ctx) Hashtbl.t;
  journals : (Symbol.t, jstate) Hashtbl.t;
  subscriptions : (Symbol.t, Symbol.Set.t) Hashtbl.t;
  pending_trigger_complements : (Symbol.t, Literal.t list) Hashtbl.t;
  mutable decided : Symbol.Set.t;
  mutable seqno : int;
  mutable occurrences : occurrence list;
  mutable rejected : Literal.t list;
  mutable forced : int;
  mutable uncontrollable : int;
}

let agent_table (wf : Workflow_def.t) =
  let agents = Hashtbl.create 16 in
  let agent_of_symbol = Hashtbl.create 64 in
  List.iter
    (fun (task : Workflow_def.task) ->
      Hashtbl.replace agents task.instance
        (Agent.create ~instance:task.instance ~model:task.model
           ~script:task.script ~parametrize:task.parametrize ());
      List.iter
        (fun (ev, _, _) ->
          Hashtbl.replace agent_of_symbol
            (Task_model.symbol_of_event task.model ~instance:task.instance ev)
            task.instance)
        task.model.Task_model.significant)
    wf.tasks;
  let instances =
    List.sort String.compare
      (List.map (fun (task : Workflow_def.task) -> task.instance) wf.tasks)
  in
  { agents; agent_of_symbol; instances }

let decided_globally t sym = Symbol.Set.mem sym t.decided

let actor_of t sym =
  match Hashtbl.find_opt t.actors sym with
  | Some a -> a
  | None -> Fmt.invalid_arg "Runtime: no actor for %a" Symbol.pp sym

let agent_for t sym =
  Option.map (Hashtbl.find t.tasks.agents)
    (Hashtbl.find_opt t.tasks.agent_of_symbol sym)

let subscribers_of t sym =
  Option.value (Hashtbl.find_opt t.subscriptions sym) ~default:Symbol.Set.empty

(* Per-actor context, allocated once per symbol.  The closures capture
   the symbol, never the actor record, so recovery can swap in a fresh
   actor under the memoized context. *)
let rec ctx_for t sym : Actor.ctx =
  match Hashtbl.find_opt t.ctxs sym with
  | Some ctx -> ctx
  | None ->
      let trace =
        match t.tracer with
        | None -> fun _ _ -> ()
        | Some sink ->
            let site = Actor.site (actor_of t sym) and name = Symbol.name sym in
            fun outcome guard ->
              Wf_obs.Trace.emit sink
                (Wf_obs.Trace.make ~time:(t.transport.now ()) ~site
                   ~actor:name
                   (Wf_obs.Trace.Assim { outcome; guard = Guard.uid guard }))
      in
      let ctx =
        {
          Actor.send =
            (fun dst msg ->
              t.transport.send ~src:sym ~dst ~priority:false msg;
              Wf_obs.Metrics.incr t.stats ("msg_" ^ Messages.label msg));
          fire = (fun lit -> fire t lit);
          reject = (fun lit -> reject t lit);
          trigger_task = (fun lit -> trigger_task t lit);
          stats = t.stats;
          emit_assim =
            (* [Forced] is counted in runtime state so that a checker
               snapshot reverts it; [trace] interns the guard only when
               a sink listens. *)
            Some
              (fun outcome guard ->
                (match outcome with
                | Wf_obs.Trace.Forced -> t.forced <- t.forced + 1
                | _ -> ());
                trace outcome guard);
        }
      in
      Hashtbl.add t.ctxs sym ctx;
      ctx

(* The journaled entry point: append the input (write-ahead), apply it,
   and checkpoint when due — but only at depth 0, because an actor's own
   fire feeds back as a nested delivery of its occurrence, and a
   checkpoint taken inside the outer apply would freeze a half-applied
   state. *)
and deliver t actor input =
  let sym = Actor.symbol actor in
  let js = Hashtbl.find t.journals sym in
  Wf_store.Journal.append js.j input;
  (* Inputs the actor cannot re-derive after a crash must be durable
     before their effects become externally visible: the transport has
     already acked an [I_message] (it will never redeliver it) and an
     [I_attempt] advanced the agent, which lives outside the journal.
     [I_occurred] entries stay unsynced — a salvage that rolls one back
     leaves the actor undecided, and the recovery handshake plus the
     global decided set re-establish the fate — so torn-tail and
     lost-tail faults keep a real surface to bite on. *)
  (match input with
  | Actor.I_message _ | Actor.I_attempt _ -> Wf_store.Journal.sync js.j
  | Actor.I_occurred _ | Actor.I_close -> ());
  js.depth <- js.depth + 1;
  Fun.protect
    ~finally:(fun () -> js.depth <- js.depth - 1)
    (fun () -> Actor.apply (ctx_for t sym) actor input);
  if js.depth = 0 && Wf_store.Journal.wants_checkpoint js.j then
    Wf_store.Journal.checkpoint js.j (Actor.snapshot actor)

and fire t lit =
  let sym = Literal.symbol lit in
  if not (decided_globally t sym) then begin
    t.seqno <- t.seqno + 1;
    let seqno = t.seqno in
    let occurrence = { lit; seqno; time = t.transport.now () } in
    t.occurrences <- occurrence :: t.occurrences;
    t.decided <- Symbol.Set.add sym t.decided;
    t.on_event occurrence;
    Wf_obs.Metrics.incr t.stats "occurrences";
    (* Own actor learns first (it hosts the event). *)
    deliver t (actor_of t sym) (Actor.I_occurred { lit; seqno });
    (* The owning agent advances; triggered transitions already advanced
       the agent, so use the stashed complements instead. *)
    let complements =
      match Hashtbl.find_opt t.pending_trigger_complements sym with
      | Some cs ->
          Hashtbl.remove t.pending_trigger_complements sym;
          cs
      | None -> (
          match agent_for t sym with
          | Some agent when Literal.is_pos lit ->
              let cs = Agent.on_accepted agent sym in
              t.transport.agent_ready agent;
              cs
          | _ -> [])
    in
    (* Announce to every subscriber actor. *)
    Symbol.Set.iter
      (fun watcher ->
        if not (Symbol.equal watcher sym) then begin
          t.transport.send ~src:sym ~dst:watcher ~priority:false
            (Messages.Announce { lit; seqno });
          Wf_obs.Metrics.incr t.stats "msg_announce"
        end)
      (subscribers_of t sym);
    (* Newly impossible events: their complements occur. *)
    List.iter (fun c -> fire t c) complements
  end

and reject t lit =
  t.rejected <- lit :: t.rejected;
  Wf_obs.Metrics.incr t.stats "rejections";
  match agent_for t (Literal.symbol lit) with
  | None -> ()
  | Some agent ->
      Agent.on_rejected agent (Literal.symbol lit);
      t.transport.agent_ready agent

and trigger_task t lit =
  let sym = Literal.symbol lit in
  match agent_for t sym with
  | None -> false
  | Some agent -> (
      match Agent.trigger agent sym with
      | None -> false
      | Some complements ->
          Hashtbl.replace t.pending_trigger_complements sym complements;
          t.transport.agent_ready agent;
          true)

let attempt t agent sym (attr : Attribute.t) =
  Wf_obs.Metrics.incr t.stats "attempts";
  let actor = actor_of t sym in
  if attr.controllable then
    (* Vet the complements the transition entails together with the
       event's own guard: committing must be allowed to preclude
       aborting, etc. *)
    let entailed =
      Guard.conj_all
        (List.map
           (fun c -> (Compile.plan t.compiled c).Compile.guard)
           (Agent.would_make_unreachable agent sym))
    in
    deliver t actor (Actor.I_attempt { pol = Literal.Pos; entailed })
  else begin
    (* Uncontrollable: announced, not requested.  Record a violation if
       the guard would have said no. *)
    let g = (Compile.plan t.compiled (Literal.pos sym)).Compile.guard in
    let know = Actor.knowledge actor in
    (match
       match Gtable.status_hint g know with
       | Some s -> s
       | None -> Knowledge.status know g
     with
    | Knowledge.False ->
        t.uncontrollable <- t.uncontrollable + 1;
        Wf_obs.Metrics.incr t.stats "uncontrollable_violations"
    | _ -> ());
    fire t (Literal.pos sym)
  end

(* {2 Recovery} *)

let replay t sym (ckpt, suffix) =
  let fresh = (Hashtbl.find t.actor_seeds sym) () in
  (match ckpt with Some s -> Actor.restore fresh s | None -> ());
  let mctx = Actor.muted_ctx t.replay_stats in
  List.iter (fun input -> Actor.apply mctx fresh input) suffix;
  fresh

let hosted t site =
  List.filter (fun sym -> Actor.site (actor_of t sym) = site) t.symbols

let recover t site ~epoch =
  let hosted = hosted t site in
  List.iter
    (fun sym ->
      let js = Hashtbl.find t.journals sym in
      let ckpt, suffix = Wf_store.Journal.recover js.j in
      Hashtbl.replace t.actors sym (replay t sym (ckpt, suffix));
      Wf_obs.Metrics.incr t.stats "actor_recoveries";
      Wf_obs.Metrics.add t.stats "replayed_entries" (List.length suffix))
    hosted;
  (* Actor-level handshake: an undecided recovered actor pings the peers
     it watches; a peer with a decided fate re-announces it.  Recovery
     traffic rides the priority lane: it must never wait behind the data
     backlog it is trying to unblock. *)
  List.iter
    (fun sym ->
      let actor = actor_of t sym in
      if Actor.decided actor = None then
        Symbol.Set.iter
          (fun peer ->
            if
              Hashtbl.mem t.actors peer
              && not (Knowledge.decided (Actor.knowledge actor) peer)
            then begin
              t.transport.send ~src:sym ~dst:peer ~priority:true
                (Messages.Recovered { sym; epoch });
              Wf_obs.Metrics.incr t.stats "msg_recovered"
            end)
          (Actor.watched_symbols actor))
    hosted

(* {2 Closing} *)

let close_round t =
  (* Emit complements of events that can no longer occur. *)
  let progress = ref false in
  List.iter
    (fun instance ->
      let agent = Hashtbl.find t.tasks.agents instance in
      if Agent.finished agent then
        List.iter
          (fun c ->
            let sym = Literal.symbol c in
            if
              Hashtbl.mem t.actors sym
              && (not (decided_globally t sym))
              && Actor.parked_count (actor_of t sym) = 0
            then begin
              fire t c;
              progress := true
            end)
          (Agent.undecided_complements agent))
    t.tasks.instances;
  !progress

let rec close_rounds t budget =
  if budget > 0 && close_round t then begin
    t.transport.settle ();
    close_rounds t (budget - 1)
  end

let final_close t =
  (* Reject whatever is still parked — one symbol at a time, lowest
     first, letting each rejection's consequences (agent fallbacks,
     announcements) propagate before the next: a rejected commit's
     fallback abort routinely unblocks other parked events. *)
  let rec reject_loop budget =
    if budget > 0 then
      match
        List.find_opt
          (fun sym -> Actor.parked_count (actor_of t sym) > 0)
          t.symbols
      with
      | None -> ()
      | Some sym ->
          deliver t (actor_of t sym) Actor.I_close;
          t.transport.settle ();
          close_rounds t 16;
          reject_loop (budget - 1)
  in
  reject_loop 256;
  (* Then decide leftover symbols negatively so the realized trace is
     maximal, again letting each round settle. *)
  let rec neg_loop budget =
    match List.find_opt (fun sym -> not (decided_globally t sym)) t.symbols with
    | Some sym when budget > 0 ->
        fire t (Literal.neg sym);
        t.transport.settle ();
        close_rounds t 16;
        reject_loop 64;
        neg_loop (budget - 1)
    | _ -> ()
  in
  neg_loop 1024

let close t =
  t.transport.settle ();
  close_rounds t 64;
  final_close t

(* {2 Build} *)

(* The symbols an actor must hear about: guard symbols of both
   polarities, the full alphabet of its demand automata, and the guards
   of complements the owning task's transitions may entail. *)
let watch_set compiled wf sym ~plans:(plan_pos, plan_neg) ~demand_automata =
  let watch =
    Symbol.Set.union plan_pos.Compile.watched plan_neg.Compile.watched
  in
  let watch =
    match Workflow_def.owner_of wf sym with
    | None -> watch
    | Some task -> (
        let model = task.Workflow_def.model in
        let instance = task.Workflow_def.instance in
        match
          Task_model.event_of_symbol model ~instance
            (Symbol.make (Symbol.base sym))
        with
        | None -> watch
        | Some ev ->
            List.fold_left
              (fun acc (tr : Task_model.transition) ->
                if tr.event <> ev then acc
                else
                  let unreachable = Task_model.unreachable_events model in
                  let before = unreachable tr.from_state in
                  let after = unreachable tr.to_state in
                  List.fold_left
                    (fun acc gone ->
                      if List.mem gone before then acc
                      else
                        let gone_sym =
                          Task_model.symbol_of_event model ~instance gone
                        in
                        Symbol.Set.union acc
                          (Compile.plan compiled (Literal.neg gone_sym))
                            .Compile.watched)
                    acc after)
              watch model.Task_model.transitions)
  in
  List.fold_left
    (fun acc aut ->
      List.fold_left
        (fun acc l -> Symbol.Set.add (Literal.symbol l) acc)
        acc (Automaton.alphabet aut))
    watch demand_automata

let unwired =
  {
    send = (fun ~src:_ ~dst:_ ~priority:_ _ -> invalid_arg "Runtime: unwired");
    settle = ignore;
    now = (fun () -> 0.0);
    agent_ready = ignore;
  }

let build ?(checkpoint_every = 32) ?(guard_overrides = []) ?tracer
    ?(on_event = ignore) ~stats ~transport wf =
  let deps = Workflow_def.dependencies wf in
  let compiled = Compile.compile deps in
  let tasks = agent_table wf in
  (* The symbols needing actors: dependency alphabet plus all task
     events (unmentioned ones get guard ⊤). *)
  let symbols =
    Symbol.Set.elements
      (Hashtbl.fold
         (fun sym _ acc -> Symbol.Set.add sym acc)
         tasks.agent_of_symbol (Compile.alphabet compiled))
  in
  let t =
    {
      wf;
      compiled;
      stats;
      replay_stats = Wf_obs.Metrics.create ();
      tracer;
      on_event;
      transport = unwired;
      tasks;
      symbols;
      actors = Hashtbl.create 64;
      actor_seeds = Hashtbl.create 64;
      ctxs = Hashtbl.create 64;
      journals = Hashtbl.create 64;
      subscriptions = Hashtbl.create 64;
      pending_trigger_complements = Hashtbl.create 8;
      decided = Symbol.Set.empty;
      seqno = 0;
      occurrences = [];
      rejected = [];
      forced = 0;
      uncontrollable = 0;
    }
  in
  let guard_for lit =
    match List.find_opt (fun (l, _) -> Literal.equal l lit) guard_overrides with
    | Some (_, g) -> g
    | None -> (Compile.plan compiled lit).Compile.guard
  in
  (* Demand automata for triggerable events. *)
  let automata = List.map (fun d -> (d, Automaton.build d)) deps in
  List.iter
    (fun sym ->
      let attr = Workflow_def.attribute_of wf sym in
      let plans =
        ( Compile.plan compiled (Literal.pos sym),
          Compile.plan compiled (Literal.neg sym) )
      in
      let demand_automata =
        if attr.Attribute.triggerable then
          List.filter_map
            (fun (d, aut) ->
              if Literal.Set.mem (Literal.pos sym) (Expr.literals d) then
                Some aut
              else None)
            automata
        else []
      in
      let seed () =
        Actor.create ~sym ~site:(Workflow_def.site_of wf sym)
          ~guard_pos:(guard_for (Literal.pos sym))
          ~guard_neg:(guard_for (Literal.neg sym))
          ~attr_pos:attr ~attr_neg:Attribute.uncontrollable ~demand_automata ()
      in
      Hashtbl.replace t.actors sym (seed ());
      Hashtbl.replace t.actor_seeds sym seed;
      Hashtbl.replace t.journals sym
        { j = Wf_store.Journal.create ~checkpoint_every (); depth = 0 };
      Symbol.Set.iter
        (fun watched ->
          if not (Symbol.equal watched sym) then
            Hashtbl.replace t.subscriptions watched
              (Symbol.Set.add sym (subscribers_of t watched)))
        (watch_set compiled wf sym ~plans ~demand_automata))
    symbols;
  t.transport <- transport t;
  t
