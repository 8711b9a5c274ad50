(* Differential suites for the performance layer: the interned/memoized
   kernels must agree structurally with the naive reference
   implementations that remain the oracle (residuation, guard
   synthesis, automaton construction). *)

open Wf_core
open Helpers

(* --- interning ----------------------------------------------------------- *)

let test_intern_ids () =
  let t1 = [ lit "e"; lit "~f" ] and t2 = [ lit "e"; lit "~f" ] in
  check Alcotest.int "equal terms intern to the same id" (Intern.term t1)
    (Intern.term t2);
  checkb "distinct terms intern apart"
    (Intern.term [ lit "e" ] <> Intern.term [ lit "f" ]);
  checkb "term id differs from literal id"
    (Intern.literal (lit "e") <> Intern.term [ lit "f" ]);
  let n1 = Nf.of_expr (Expr.choice (Expr.event "e") (Expr.event "f")) in
  let n2 = Nf.of_expr (Expr.choice (Expr.event "f") (Expr.event "e")) in
  check Alcotest.int "normal forms intern by structure" (Intern.nf n1)
    (Intern.nf n2);
  checkb "stats report live tables"
    (List.length (Intern.stats ()) = 4
    && List.for_all (fun (_, n) -> n >= 0) (Intern.stats ()))

let test_clear_memos () =
  let d = Expr.choice (Expr.seq e f) ng in
  let before = Synth.guard d (lit "e") in
  Intern.clear_memos ();
  let after = Synth.guard d (lit "e") in
  checkb "cleared memos recompute the same guard" (Guard.equal before after)

(* Guard uids key the Gtable memo, actor fingerprints and trace records,
   so like Intern's ids they must never be reassigned to another guard. *)
let test_uids_survive_clear () =
  let g1 = Synth.guard (Expr.seq e f) (lit "f") in
  let g2 = Synth.guard (Expr.seq e f) (lit "e") in
  checkb "two distinct guards" (not (Guard.equal g1 g2));
  Intern.clear_memos ();
  let u1 = Guard.uid g1 in
  Intern.clear_memos ();
  checkb "a cleared memo never reassigns a uid" (Guard.uid g2 <> u1);
  check Alcotest.int "a guard keeps its uid across clears" u1 (Guard.uid g1)

(* --- memoized residuation ------------------------------------------------ *)

let residue_agrees =
  qprop "memoized residuation = naive residuation"
    QCheck2.Gen.(pair gen_expr gen_literal)
    (fun (d, l) ->
      let nf_ = Nf.of_expr d in
      Nf.equal (Residue.nf nf_ l) (Residue.nf_naive nf_ l))

(* --- shared-memo guard synthesis ----------------------------------------- *)

let guard_agrees =
  qprop "shared-memo guard synthesis = naive"
    QCheck2.Gen.(pair gen_expr gen_literal)
    (fun (d, l) -> Guard.equal (Synth.guard d l) (Synth.guard_naive d l))

let all_guards_agree =
  qprop ~count:100 "all_guards under one shared memo = per-literal naive"
    gen_expr_pair
    (fun (d1, d2) ->
      let deps = [ d1; d2 ] in
      List.for_all
        (fun (l, g) ->
          Guard.equal g
            (Guard.conj_all
               (List.filter_map
                  (fun d ->
                    if Literal.Set.mem l (Expr.literals d) then
                      Some (Synth.guard_naive d l)
                    else None)
                  deps)))
        (Synth.all_guards deps))

(* --- automaton construction ---------------------------------------------- *)

let same_automaton a b =
  Automaton.num_states a = Automaton.num_states b
  && List.equal Literal.equal (Automaton.alphabet a) (Automaton.alphabet b)
  && List.for_all2
       (fun (s1, l1, d1) (s2, l2, d2) ->
         s1 = s2 && Literal.equal l1 l2 && d1 = d2)
       (Automaton.transitions a) (Automaton.transitions b)
  && List.for_all
       (fun s ->
         Nf.equal (Automaton.state_nf a s) (Automaton.state_nf b s)
         && Automaton.is_accepting a s = Automaton.is_accepting b s
         && Automaton.is_dead a s = Automaton.is_dead b s
         && Automaton.can_complete a s = Automaton.can_complete b s)
       (List.init (Automaton.num_states a) Fun.id)

let automaton_agrees =
  qprop "fast automaton build = naive build (states, edges, flags)" gen_expr
    (fun d -> same_automaton (Automaton.build d) (Automaton.build_naive d))

let suite =
  [
    Alcotest.test_case "interned ids are canonical" `Quick test_intern_ids;
    Alcotest.test_case "clear_memos preserves results" `Quick test_clear_memos;
    Alcotest.test_case "guard uids survive clear_memos" `Quick
      test_uids_survive_clear;
    residue_agrees;
    guard_agrees;
    all_guards_agree;
    automaton_agrees;
  ]
