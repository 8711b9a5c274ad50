open Wf_core
open Wf_tasks

type config = {
  seed : int64;
  base_latency : float;
  jitter : float;
  think_time : float;
  max_steps : int;
  check_generates : bool;
  checkpoint_every : int;
  faults : Wf_sim.Netsim.fault_config;
  store : Wf_store.Media.Sim.fault_config option;
  on_event : occurrence -> unit;
  tracer : Wf_obs.Trace.sink option;
  flow : Flow.config option;
  arrival : Flow.arrival;
}

and occurrence = Runtime.occurrence = {
  lit : Literal.t;
  seqno : int;
  time : float;
}

let default_config =
  {
    seed = 42L;
    base_latency = 1.0;
    jitter = 0.2;
    think_time = 0.5;
    max_steps = 2_000_000;
    check_generates = false;
    checkpoint_every = 32;
    faults = Wf_sim.Netsim.no_faults;
    store = None;
    on_event = (fun _ -> ());
    tracer = None;
    flow = None;
    arrival = Flow.Poisson;
  }

type result = {
  trace : occurrence list;
  stats : Wf_obs.Metrics.t;
  makespan : float;
  satisfied : bool;
  violations : Expr.t list;
  generated : bool option;
  rejected : Literal.t list;
}

let site rt sym = Actor.site (Runtime.actor_of rt sym)

(* With simulated storage under a journal, a crash first damages the
   media (seeded faults), then the journal is rebuilt from whatever the
   salvage scan verifies — the in-memory mirror is volatile and died
   with the site. *)
let salvage cfg (rt : Runtime.t) sym media =
  let js = Hashtbl.find rt.journals sym in
  let stats = rt.stats in
  let before = Wf_store.Journal.total_appended js.j in
  Wf_store.Media.Sim.crash media;
  let j', report =
    Wf_store.Journal.reload ~checkpoint_every:cfg.checkpoint_every Actor.codec
      (Wf_store.Media.Sim.device media)
  in
  js.j <- j';
  let open Wf_store.Log in
  let fallback = report.sr_ckpt = Fallback in
  Wf_obs.Metrics.incr stats "store_salvages";
  Wf_obs.Metrics.add stats "store_dropped_entries"
    (before - report.sr_total_entries);
  Wf_obs.Metrics.add stats "store_dropped_bytes" report.sr_dropped_bytes;
  if fallback then Wf_obs.Metrics.incr stats "store_ckpt_fallbacks";
  match cfg.tracer with
  | None -> ()
  | Some sink ->
      Wf_obs.Trace.emit sink
        (Wf_obs.Trace.make
           ~time:(rt.transport.now ())
           ~site:(site rt sym) ~actor:(Symbol.name sym)
           (Wf_obs.Trace.Store_salvage
              {
                kept = report.sr_frames;
                dropped = report.sr_dropped_bytes;
                fallback;
              }))

let build cfg wf =
  let num_sites = Workflow_def.num_sites wf in
  let net =
    Wf_sim.Netsim.create ~seed:cfg.seed ~faults:cfg.faults ~num_sites
      ~latency:
        (Wf_sim.Netsim.uniform_latency ~base:cfg.base_latency ~jitter:cfg.jitter)
      ()
  in
  Wf_sim.Netsim.set_tracer net cfg.tracer;
  let stats = Wf_sim.Netsim.stats net in
  (* Retransmission timeout: generously above one round trip, so the
     fault-free fast path rarely fires a retransmit. *)
  let chan =
    Channel.create
      ~rto:(3.0 *. (cfg.base_latency +. cfg.jitter) +. 0.5)
      ?flow:cfg.flow net
  in
  let settle () = Wf_sim.Netsim.run ~max_steps:cfg.max_steps net in
  (* An agent that may attempt again does so after its arrival delay,
     behind the admission gate of its own site. *)
  let schedule_agent rt agent =
    match Agent.want agent with
    | None -> ()
    | Some (sym, attr) ->
        Agent.begin_attempt agent sym;
        let site = site rt sym in
        Flow.schedule_attempt (Channel.flow chan) ~net ~arrival:cfg.arrival
          ~mean:cfg.think_time ~site ~depth_site:site ~actor:(Symbol.name sym)
          (fun () -> Runtime.attempt rt agent sym attr)
  in
  let transport rt =
    {
      Runtime.send =
        (fun ~src ~dst ~priority msg ->
          Channel.send ~priority chan ~src:(site rt src) ~dst:(site rt dst)
            (dst, msg));
      settle;
      now = (fun () -> Wf_sim.Netsim.now net);
      agent_ready = schedule_agent rt;
    }
  in
  let rt =
    Runtime.build ~checkpoint_every:cfg.checkpoint_every ?tracer:cfg.tracer
      ~on_event:cfg.on_event ~stats ~transport wf
  in
  (* Per-actor storage media draw their fault seeds from a dedicated
     stream derived from the run seed, so enabling the store does not
     perturb the run's own randomness. *)
  let media = Hashtbl.create 64 in
  Option.iter
    (fun faults ->
      let store_rng = Wf_sim.Rng.create (Int64.logxor cfg.seed 0x53544F52L) in
      List.iter
        (fun sym ->
          let m =
            Wf_store.Media.Sim.create ~faults
              ~seed:(Wf_sim.Rng.next_int64 store_rng)
              ~stats ?tracer:cfg.tracer
              ~clock:(fun () -> Wf_sim.Netsim.now net)
              ~site:(site rt sym) ~actor:(Symbol.name sym) ()
          in
          Wf_store.Journal.attach (Hashtbl.find rt.journals sym).j
            (Wf_store.Log.create Actor.codec (Wf_store.Media.Sim.device m));
          Hashtbl.replace media sym m)
        rt.symbols)
    cfg.store;
  (* Site message dispatch, behind the reliable channel: each protocol
     message is handled exactly once even when the network drops,
     duplicates, or reorders the wire traffic. *)
  for site = 0 to num_sites - 1 do
    Channel.on_receive chan site (fun _src (target, msg) ->
        Runtime.deliver rt (Runtime.actor_of rt target) (Actor.I_message msg))
  done;
  (* Crash recovery: when a site restarts, the channel's hook (created
     first, so it runs first) has already bumped the epoch and said
     Hello; salvage each hosted journal's media, then let the runtime
     rebuild the actors and run the actor-level handshake. *)
  Wf_sim.Netsim.on_restart net (fun site ->
      List.iter
        (fun sym ->
          Option.iter (salvage cfg rt sym) (Hashtbl.find_opt media sym))
        (Runtime.hosted rt site);
      Runtime.recover rt site ~epoch:(Channel.epoch chan site));
  (rt, net)

let run ?(config = default_config) wf =
  (match Workflow_def.validate wf with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Event_sched.run: " ^ msg));
  let rt, net = build config wf in
  (* Kick off every agent, then close: alternate complement emission
     and network drain. *)
  List.iter
    (fun instance ->
      rt.transport.agent_ready (Hashtbl.find rt.tasks.agents instance))
    rt.tasks.instances;
  Runtime.close rt;
  let deps = Workflow_def.dependencies wf in
  let trace = List.rev_map (fun o -> o.lit) rt.occurrences in
  let violations = Correctness.violations deps trace in
  let generated =
    if config.check_generates then Some (Correctness.generates deps trace)
    else None
  in
  {
    trace = List.rev rt.occurrences;
    stats = rt.stats;
    makespan = Wf_sim.Netsim.now net;
    satisfied = violations = [];
    violations;
    generated;
    rejected = List.rev rt.rejected;
  }

let trace_literals result = List.map (fun o -> o.lit) result.trace
