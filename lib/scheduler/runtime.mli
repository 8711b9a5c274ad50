open Wf_core
open Wf_tasks

(** The actor runtime of the distributed event-centric scheduler
    (Section 4.3), written once over a pluggable transport.

    It owns everything that does not depend on how messages travel:
    the agent table, one guard {!Actor} per symbol with its write-ahead
    journal, the subscription lists (who hears of which occurrence),
    firing, rejecting and triggering, agent attempts, crash recovery
    from the journals and the closing phase.  A {!transport} supplies
    the rest: where a protocol message goes, how pending work settles,
    the clock, and what happens when an agent can attempt again.

    {!Event_sched} plugs in the virtual-time network (channel, flow
    control, storage media); {!Step_sched} plugs in explicit per-pair
    queues driven by the model checker.  The checker therefore explores
    the same runtime the simulator runs. *)

type occurrence = { lit : Literal.t; seqno : int; time : float }

type transport = {
  send : src:Symbol.t -> dst:Symbol.t -> priority:bool -> Messages.t -> unit;
      (** route a protocol message from one symbol's actor to another's;
          [priority] marks recovery-handshake traffic *)
  settle : unit -> unit;
      (** run pending deliveries and attempts until quiescent *)
  now : unit -> float;  (** the time stamped on occurrences and traces *)
  agent_ready : Agent.t -> unit;
      (** the agent advanced (accepted, rejected or triggered) and may
          want its next attempt *)
}

type agent_table = {
  agents : (string, Agent.t) Hashtbl.t;
  agent_of_symbol : (Symbol.t, string) Hashtbl.t;
      (** the instance owning each significant event *)
  instances : string list;  (** sorted *)
}

val agent_table : Workflow_def.t -> agent_table
(** A fresh agent per task instance. *)

type jstate = {
  mutable j : (Actor.input, Actor.snapshot) Wf_store.Journal.t;
  mutable depth : int;
      (** reentrancy depth of {!deliver}: an actor's own fire feeds
          back as a nested delivery, and no checkpoint may be taken
          inside it *)
}

type t = {
  wf : Workflow_def.t;
  compiled : Compile.t;
  stats : Wf_obs.Metrics.t;
  replay_stats : Wf_obs.Metrics.t;  (** scratch sink for muted replays *)
  tracer : Wf_obs.Trace.sink option;
  on_event : occurrence -> unit;
  mutable transport : transport;
  tasks : agent_table;
  symbols : Symbol.t list;  (** every symbol with an actor, sorted *)
  actors : (Symbol.t, Actor.t) Hashtbl.t;
  actor_seeds : (Symbol.t, unit -> Actor.t) Hashtbl.t;
      (** spec-derived creation parameters, to re-derive a fresh actor
          on recovery *)
  ctxs : (Symbol.t, Actor.ctx) Hashtbl.t;
  journals : (Symbol.t, jstate) Hashtbl.t;
  subscriptions : (Symbol.t, Symbol.Set.t) Hashtbl.t;
  pending_trigger_complements : (Symbol.t, Literal.t list) Hashtbl.t;
  mutable decided : Symbol.Set.t;
  mutable seqno : int;
  mutable occurrences : occurrence list;  (** newest first *)
  mutable rejected : Literal.t list;  (** newest first *)
  mutable forced : int;
      (** guard decisions forced through against a [False] verdict *)
  mutable uncontrollable : int;
      (** uncontrollable events fired while their guard said [False] *)
}
(** The persistent fields ([decided], the occurrence and rejection
    lists) let {!Step_sched} snapshot the state by sharing. *)

val build :
  ?checkpoint_every:int ->
  ?guard_overrides:(Literal.t * Guard.t) list ->
  ?tracer:Wf_obs.Trace.sink ->
  ?on_event:(occurrence -> unit) ->
  stats:Wf_obs.Metrics.t ->
  transport:(t -> transport) ->
  Workflow_def.t ->
  t
(** Compile the workflow; create agents, actors, journals (in-memory,
    checkpointing every [checkpoint_every] appends) and subscriptions.
    [guard_overrides] substitutes the synthesized guard of the given
    literals.  [transport] is applied once to the new runtime.  With a
    [tracer], every guard decision emits an [Assim] record; [on_event]
    sees each occurrence in order. *)

val actor_of : t -> Symbol.t -> Actor.t
val decided_globally : t -> Symbol.t -> bool

val deliver : t -> Actor.t -> Actor.input -> unit
(** Journal the input (write-ahead; messages and attempts are synced),
    apply it, and checkpoint at the outermost delivery when due. *)

val attempt : t -> Agent.t -> Symbol.t -> Attribute.t -> unit
(** The agent's attempt of [sym], after [Agent.begin_attempt]:
    controllable events go to the owning actor for vetting, with the
    guards of the complements the transition entails; uncontrollable
    ones fire outright, counting a violation if the guard objected. *)

val replay :
  t -> Symbol.t -> Actor.snapshot option * Actor.input list -> Actor.t
(** A fresh actor for the symbol, restored from the checkpoint and the
    journal suffix replayed with side effects muted. *)

val hosted : t -> int -> Symbol.t list
(** The symbols whose actors live at the site, sorted. *)

val recover : t -> int -> epoch:int -> unit
(** The site restarted: rebuild each hosted actor from its journal,
    then send the recovery handshake — every undecided recovered actor
    tells the peers it watches that it came back in [epoch], and a peer
    with a decided fate re-announces it. *)

val close : t -> unit
(** The closing phase: settle; then alternate emitting the complements
    of events finished agents can no longer produce with settling;
    then reject parked attempts and decide leftover symbols negatively,
    lowest symbol first, settling after each, until every symbol is
    decided. *)
