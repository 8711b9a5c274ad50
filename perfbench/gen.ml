(* Seeded input generators.  Everything here runs before timing starts;
   the engines receive only the spec text and the token streams built
   here.  The same seed gives the same text and the same streams. *)

module Rng = Wf_sim.Rng

(* The prepare/commit saga of the fleet scale suite: commit c[x] is
   allowed only after prepare p[x], or never. *)
let saga_spec = "workflow saga {\n  dep saga: ~c[x] + p[x].c[x];\n}\n"

(* Example 13 of the paper, as in specs/mutex.wf: two looping tasks in
   mutual exclusion.  Two variables per dependency, so the fleet engine
   cannot run it and Param_sched quantifies over every binding seen. *)
let mutex_spec =
  "workflow mutex {\n\
  \  task t1 : loop at 0 loop 4 param;\n\
  \  task t2 : loop at 1 loop 4 param;\n\
  \  dep m12: b_t2[y].b_t1[x] + ~e_t1[x] + ~b_t2[y] + e_t1[x].b_t2[y];\n\
  \  dep m21: b_t1[x].b_t2[y] + ~e_t2[y] + ~b_t1[x] + e_t2[y].b_t1[x];\n\
   }\n"

(* specs/mc_indep.wf: two independent commit-ordered pairs, the spec
   whose DPOR state count (178,556 at crash depth 1) is pinned. *)
let mc_indep_spec =
  "workflow mc_indep {\n\
  \  task t1 : transaction at 0;\n\
  \  task t2 : transaction at 1;\n\
  \  task u1 : transaction at 2;\n\
  \  task u2 : transaction at 3;\n\
  \  dep ot: use commit_order(t1, t2);\n\
  \  dep ou: use commit_order(u1, u2);\n\
   }\n"

(* --- fleet-saga ---------------------------------------------------------- *)

type saga = {
  n : int;  (** bindings *)
  commit : bool array;  (** input i attempts c[tok] (else p[tok] occurs) *)
  tok : int array;
      (** input i's binding; the engine call builds its token string, so
          the strings the engine keeps count towards its memory *)
}

(* Commits arrive as a Poisson process of unit mean inter-arrival; each
   prepare lands an exponential lag (mean 8) after its commit, so the
   commit always arrives first and parks.  [plant] appends a second copy
   of one commit: the planted exactly-once fault of the self-test. *)
let saga ~seed ~n ~plant =
  let rng = Rng.create (Int64.of_int seed) in
  let m = 2 * n in
  let times = Array.make m 0.0 in
  let t = ref 0.0 in
  for j = 0 to n - 1 do
    t := !t +. Rng.exponential rng ~mean:1.0;
    times.(2 * j) <- !t;
    times.((2 * j) + 1) <- !t +. Rng.exponential rng ~mean:8.0
  done;
  let order = Array.init m (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Float.compare times.(a) times.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  let m' = if plant then m + 1 else m in
  let commit = Array.make m' true in
  let tok = Array.make m' 0 in
  Array.iteri
    (fun i slot ->
      commit.(i) <- slot land 1 = 0;
      tok.(i) <- slot / 2)
    order;
  if plant then tok.(m) <- Rng.int rng n;
  { n; commit; tok }

(* --- param-mutex --------------------------------------------------------- *)

type mutex = {
  rounds : int;
  picks : Bytes.t array;
      (** one stream per interleaving: which task the scheduler lets
          move next, read cyclically; round k's token is k *)
}

let mutex ~seed ~rounds ~interleavings =
  let rng = Rng.create (Int64.of_int seed) in
  let picks =
    Array.init interleavings (fun _ ->
        Bytes.init (64 * rounds) (fun _ -> if Rng.bool rng then '1' else '0'))
  in
  { rounds; picks }

(* --- dist-travel --------------------------------------------------------- *)

(* Example 4 of the paper, replicated for [customers] customers: three
   tasks and three dependencies each, every task on its own site.  The
   seed permutes the site assignment and the declaration order. *)
let travel ~seed ~customers =
  let rng = Rng.create (Int64.of_int seed) in
  let sites = Array.init (3 * customers) (fun i -> i) in
  Rng.shuffle rng sites;
  let items = ref [] in
  for c = 0 to customers - 1 do
    let s k = sites.((3 * c) + k) in
    items :=
      [
        Printf.sprintf "task buy%d : transaction at %d;" c (s 0);
        Printf.sprintf "task book%d : compensatable at %d script \"commit\";" c (s 1);
        Printf.sprintf "task cancel%d : compensatable at %d script \"commit\";" c (s 2);
      ]
      :: !items
  done;
  let tasks = Array.of_list (List.rev !items) in
  Rng.shuffle rng tasks;
  let deps =
    Array.init customers (fun c ->
        [
          Printf.sprintf "dep d1_%d: ~s_buy%d + s_book%d;" c c c;
          Printf.sprintf "dep d2_%d: ~c_buy%d + c_book%d . c_buy%d;" c c c c;
          Printf.sprintf "dep d3_%d: ~c_book%d + c_buy%d + s_cancel%d;" c c c c;
        ])
  in
  Rng.shuffle rng deps;
  let lines =
    List.concat (Array.to_list tasks) @ List.concat (Array.to_list deps)
  in
  "workflow travel {\n  " ^ String.concat "\n  " lines ^ "\n}\n"

(* Seeds of the K simulated runs one pass of dist-travel makes. *)
let run_seeds ~seed ~k =
  let rng = Rng.create (Int64.of_int (seed lxor 0x7472766C)) in
  Array.init k (fun _ -> Rng.next_int64 rng)
