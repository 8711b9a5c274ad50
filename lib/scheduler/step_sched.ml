open Wf_core
open Wf_tasks

(* The step-controllable transport of [Runtime]: the actors, agents,
   journals, recovery and closing are the runtime's, but there is no
   network — protocol messages wait in explicit per-(sender, receiver)
   FIFO queues and every transition happens only when the caller
   performs it.  See the interface for the model relative to the
   simulator. *)

module Pair = struct
  type t = Symbol.t * Symbol.t

  let compare (a1, b1) (a2, b2) =
    let c = Symbol.compare a1 a2 in
    if c <> 0 then c else Symbol.compare b1 b2
end

module PairMap = Map.Make (Pair)

(* Purely functional FIFO queue (banker's deque): push is O(1) and pop
   amortized O(1), against the O(n) tail append of a plain list that
   made deep-interleaving model checks quadratic in queue length.
   Being persistent, snapshots keep sharing queues by value. *)
module Dq = struct
  type 'a t = { front : 'a list; back : 'a list }

  let empty = { front = []; back = [] }
  let is_empty q = q.front = [] && q.back = []
  let push q x = { q with back = x :: q.back }

  (* Keep [front] nonempty unless the queue is empty, so [peek] after
     normalization is O(1). *)
  let norm q =
    match q.front with
    | [] -> { front = List.rev q.back; back = [] }
    | _ -> q

  let peek q = match (norm q).front with x :: _ -> Some x | [] -> None

  let pop q =
    match norm q with
    | { front = []; _ } -> None
    | { front = x :: front; back } -> Some (x, { front; back })

  let to_list q = q.front @ List.rev q.back
end

type t = {
  rt : Runtime.t;
  nsites : int;
  epochs : int array;
  queues : Messages.t Dq.t PairMap.t ref; (* oldest first *)
  mutable crashes : int;
}

let workflow t = t.rt.wf
let compiled t = t.rt.compiled
let num_sites t = t.nsites
let symbols t = t.rt.symbols
let stats t = t.rt.stats
let rejected t = List.rev t.rt.rejected
let forced t = t.rt.forced
let uncontrollable t = t.rt.uncontrollable
let crashes_used t = t.crashes
let epoch t site = t.epochs.(site)
let trace t =
  List.rev_map (fun (o : Runtime.occurrence) -> o.lit) t.rt.occurrences

(* {2 Transitions} *)

let enabled (rt : Runtime.t) =
  List.filter
    (fun i -> Agent.want (Hashtbl.find rt.tasks.agents i) <> None)
    rt.tasks.instances

let attempt (rt : Runtime.t) instance =
  let agent =
    match Hashtbl.find_opt rt.tasks.agents instance with
    | Some a -> a
    | None -> invalid_arg ("Step_sched.do_attempt: unknown instance " ^ instance)
  in
  match Agent.want agent with
  | None ->
      invalid_arg ("Step_sched.do_attempt: no enabled attempt for " ^ instance)
  | Some (sym, attr) ->
      Agent.begin_attempt agent sym;
      Runtime.attempt rt agent sym attr

let deliver_head (rt : Runtime.t) queues ((_, dst) as key) =
  match Option.bind (PairMap.find_opt key !queues) Dq.pop with
  | None -> invalid_arg "Step_sched.do_deliver: empty queue"
  | Some (msg, rest) ->
      queues :=
        if Dq.is_empty rest then PairMap.remove key !queues
        else PairMap.add key rest !queues;
      Wf_obs.Metrics.incr rt.stats "messages_delivered";
      Runtime.deliver rt (Runtime.actor_of rt dst) (Actor.I_message msg)

(* Deterministically drain everything pending: enabled attempts first
   (sorted by instance), then queued deliveries in sorted pair order.
   Budgeted so a pathological spec cannot hang the checker. *)
let drain rt queues =
  let rec go budget =
    if budget > 0 then
      match enabled rt with
      | instance :: _ ->
          attempt rt instance;
          go (budget - 1)
      | [] -> (
          match PairMap.min_binding_opt !queues with
          | Some (key, _) ->
              deliver_head rt queues key;
              go (budget - 1)
          | None -> ())
  in
  go 200_000

let enabled_attempts t = enabled t.rt
let do_attempt t instance = attempt t.rt instance
let nonempty_queues t = List.map fst (PairMap.bindings !(t.queues))

let queue_head t key =
  match PairMap.find_opt key !(t.queues) with
  | Some q -> Dq.peek q
  | None -> None

let do_deliver t key = deliver_head t.rt t.queues key

let do_crash t site =
  if site < 0 || site >= t.nsites then
    invalid_arg "Step_sched.do_crash: site out of range";
  t.crashes <- t.crashes + 1;
  t.epochs.(site) <- t.epochs.(site) + 1;
  Wf_obs.Metrics.incr t.rt.stats "net_crashes";
  Wf_obs.Metrics.incr t.rt.stats "net_restarts";
  Runtime.recover t.rt site ~epoch:t.epochs.(site)

(* Torn-write soundness probe.  One actor's journal content (latest
   checkpoint + suffix) is re-serialized through the binary codec onto a
   fresh simulated medium and synced; then one more in-flight entry is
   appended and its frame torn at byte [keep] — the crash struck
   mid-write.  Salvage must keep exactly the synced frames, and the
   state rebuilt from the salvaged log must equal the state ordinary
   journal recovery rebuilds: the torn frame's input was never applied,
   so losing it must lose nothing. *)
let torn_recovery_ok t sym =
  let ckpt, suffix =
    Wf_store.Journal.recover (Hashtbl.find t.rt.journals sym).j
  in
  let reference = Runtime.replay t.rt sym (ckpt, suffix) in
  let synced_frames =
    (match ckpt with Some _ -> 1 | None -> 0) + List.length suffix
  in
  (* Tear inside the header, at its last byte, and inside the payload. *)
  let keeps =
    [ 1; Wf_store.Log.header_length - 1; Wf_store.Log.header_length + 3 ]
  in
  List.for_all
    (fun keep ->
      let sim = Wf_store.Media.Sim.create () in
      let log =
        Wf_store.Log.create Actor.codec (Wf_store.Media.Sim.device sim)
      in
      (match ckpt with Some s -> Wf_store.Log.checkpoint log s | None -> ());
      List.iter (fun e -> Wf_store.Log.append log e) suffix;
      Wf_store.Log.sync log;
      Wf_store.Log.append log Actor.I_close;
      Wf_store.Media.Sim.tear_tail sim ~keep;
      let _, (ckpt', suffix'), report =
        Wf_store.Log.recover Actor.codec (Wf_store.Media.Sim.device sim)
      in
      report.Wf_store.Log.sr_frames = synced_frames
      && Actor.equal_state reference (Runtime.replay t.rt sym (ckpt', suffix')))
    keeps

let do_crash_torn t site =
  if site < 0 || site >= t.nsites then
    invalid_arg "Step_sched.do_crash_torn: site out of range";
  let ok =
    List.for_all (fun sym -> torn_recovery_ok t sym) (Runtime.hosted t.rt site)
  in
  do_crash t site;
  ok

(* {2 Backtracking} *)

type snapshot = {
  s_actors : (Symbol.t * Actor.snapshot) list;
  s_journals : (Symbol.t * (Actor.input, Actor.snapshot) Wf_store.Journal.t) list;
  s_agents : (string * Agent.snapshot) list;
  s_queues : Messages.t Dq.t PairMap.t;
  s_pending : (Symbol.t * Literal.t list) list;
  s_epochs : int array;
  s_decided : Symbol.Set.t;
  s_seqno : int;
  s_occurrences : Runtime.occurrence list;
  s_rejected : Literal.t list;
  s_forced : int;
  s_uncontrollable : int;
  s_crashes : int;
}

let snapshot t =
  let rt = t.rt in
  {
    s_actors =
      List.map
        (fun sym -> (sym, Actor.snapshot (Runtime.actor_of rt sym)))
        rt.symbols;
    s_journals =
      List.map
        (fun sym ->
          (sym, Wf_store.Journal.copy (Hashtbl.find rt.journals sym).j))
        rt.symbols;
    s_agents =
      List.map
        (fun i -> (i, Agent.snapshot (Hashtbl.find rt.tasks.agents i)))
        rt.tasks.instances;
    s_queues = !(t.queues);
    s_pending =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) rt.pending_trigger_complements
        [];
    s_epochs = Array.copy t.epochs;
    s_decided = rt.decided;
    s_seqno = rt.seqno;
    s_occurrences = rt.occurrences;
    s_rejected = rt.rejected;
    s_forced = rt.forced;
    s_uncontrollable = rt.uncontrollable;
    s_crashes = t.crashes;
  }

let restore t s =
  let rt = t.rt in
  List.iter
    (fun (sym, sa) -> Actor.restore (Runtime.actor_of rt sym) sa)
    s.s_actors;
  (* Re-copy on every restore so the snapshot stays pristine: one
     snapshot seeds many branches. *)
  List.iter
    (fun (sym, j) ->
      let js = Hashtbl.find rt.journals sym in
      js.j <- Wf_store.Journal.copy j;
      js.depth <- 0)
    s.s_journals;
  List.iter
    (fun (i, sa) -> Agent.restore (Hashtbl.find rt.tasks.agents i) sa)
    s.s_agents;
  t.queues := s.s_queues;
  Hashtbl.reset rt.pending_trigger_complements;
  List.iter
    (fun (k, v) -> Hashtbl.replace rt.pending_trigger_complements k v)
    s.s_pending;
  Array.blit s.s_epochs 0 t.epochs 0 (Array.length t.epochs);
  rt.decided <- s.s_decided;
  rt.seqno <- s.s_seqno;
  rt.occurrences <- s.s_occurrences;
  rt.rejected <- s.s_rejected;
  rt.forced <- s.s_forced;
  rt.uncontrollable <- s.s_uncontrollable;
  t.crashes <- s.s_crashes

module F = Fingerprint

let fp_sym h s = F.string h (Symbol.name s)
let fp_pol h = function Literal.Pos -> F.int h 1 | Literal.Neg -> F.int h 2
let fp_lit h (l : Literal.t) = fp_pol (fp_sym h l.Literal.sym) l.Literal.pol

let fp_msg h (m : Messages.t) =
  match m with
  | Messages.Announce { lit; seqno } -> F.int (fp_lit (F.int h 1) lit) seqno
  | Messages.Promise_request { target; requester; offers } ->
      F.list fp_lit (fp_lit (fp_lit (F.int h 2) target) requester) offers
  | Messages.Promise { lit; to_ } -> fp_lit (fp_lit (F.int h 3) lit) to_
  | Messages.Reserve { sym; requester } ->
      fp_lit (fp_sym (F.int h 4) sym) requester
  | Messages.Reserve_granted { sym; to_ } ->
      fp_lit (fp_sym (F.int h 5) sym) to_
  | Messages.Reserve_denied { sym; to_ } -> fp_lit (fp_sym (F.int h 6) sym) to_
  | Messages.Release { sym; holder } -> fp_lit (fp_sym (F.int h 7) sym) holder
  | Messages.Recovered { sym; epoch } -> F.int (fp_sym (F.int h 8) sym) epoch

let fingerprint t =
  let rt = t.rt in
  let h = F.init in
  (* Actors and agents in their fixed sorted orders. *)
  let h =
    List.fold_left
      (fun h sym -> F.int h (Actor.fingerprint (Runtime.actor_of rt sym)))
      h rt.symbols
  in
  let h =
    List.fold_left
      (fun h i -> F.int h (Agent.fingerprint (Hashtbl.find rt.tasks.agents i)))
      h rt.tasks.instances
  in
  let h =
    PairMap.fold
      (fun (src, dst) q h ->
        (* Fold in logical (oldest-first) order so two states whose
           deques differ only in front/back split fingerprint alike. *)
        F.list fp_msg (fp_sym (fp_sym h src) dst) (Dq.to_list q))
      !(t.queues) h
  in
  let h =
    List.fold_left
      (fun h (o : Runtime.occurrence) -> F.int (fp_lit h o.lit) o.seqno)
      (F.int h (List.length rt.occurrences))
      rt.occurrences
  in
  let h = F.list fp_lit h rt.rejected in
  let h =
    List.fold_left
      (fun h (sym, cs) -> F.list fp_lit (fp_sym h sym) cs)
      h
      (List.sort
         (fun (a, _) (b, _) -> Symbol.compare a b)
         (Hashtbl.fold (fun k v acc -> (k, v) :: acc)
            rt.pending_trigger_complements []))
  in
  let h = Array.fold_left F.int h t.epochs in
  let h = Symbol.Set.fold (fun s h -> fp_sym h s) rt.decided h in
  F.int (F.int (F.int (F.int h rt.seqno) rt.forced) rt.uncontrollable) t.crashes

(* {2 Build} *)

let build ?checkpoint_every ?guard_overrides wf =
  (match Workflow_def.validate wf with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Step_sched.build: " ^ msg));
  let nsites = Workflow_def.num_sites wf in
  let queues = ref PairMap.empty in
  (* Announcements and handshakes are queued, not delivered: the
     propagation order is the caller's to choose. *)
  let send ~src ~dst ~priority:_ msg =
    let key = (src, dst) in
    let q = Option.value (PairMap.find_opt key !queues) ~default:Dq.empty in
    queues := PairMap.add key (Dq.push q msg) !queues
  in
  let transport rt =
    {
      Runtime.send;
      settle = (fun () -> drain rt queues);
      now = (fun () -> 0.0);
      agent_ready = ignore;
    }
  in
  let rt =
    Runtime.build ?checkpoint_every ?guard_overrides
      ~stats:(Wf_obs.Metrics.create ()) ~transport wf
  in
  { rt; nsites; epochs = Array.make (max nsites 1) 0; queues; crashes = 0 }

(* {2 Closing} *)

let run_closing t = Runtime.close t.rt
