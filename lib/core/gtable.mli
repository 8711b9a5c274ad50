(** Compiled guards: residuation transition tables.

    A synthesized guard's behavior under assimilation
    ({!Guard.assimilate_occurred} / {!Guard.assimilate_promise}) is a
    finite automaton over the guard's own symbols — assimilation never
    introduces a symbol, so the alphabet is closed for ground guards.
    [compile] explores that automaton once (states deduplicated on the
    guard's canonical form) and flattens it into an immutable int
    table: [state × input → state], where each symbol contributes four
    inputs ([□x], [□x̄], [◇x], [◇x̄]), plus per-state verdict bitsets
    (enabled / violated / forced).  Assimilating a message then costs
    one array read instead of a DNF rewrite.

    {b Closed-alphabet precondition}: a table is valid only while the
    guard's symbol set is fixed.  Parametrized templates grow symbols
    as fresh tokens arrive, so the parametrized engine compiles only
    fully-instantiated ground guards and keeps fresh instances on the
    symbolic leg.

    {b Soundness of decisive verdicts}: [Enabled]/[Violated] mean the
    residual is syntactically ⊤/0 — true (false) in {e every}
    completion consistent with the assimilated knowledge.  Restricting
    the future (reservations, never-sets) preserves both, so
    integration sites may short-circuit {!Knowledge.status} on a
    decisive verdict and must fall back on [Open] (e.g. coverage-[True]
    guards such as [□x + □x̄ + ¬x|¬x̄] stay [Open] syntactically).

    The symbolic engine remains the fallback and the differential
    oracle: guards past the compile bound, and [Open] verdicts, are
    evaluated symbolically, and the QCheck suite checks every table
    walk against the symbolic assimilation fold. *)

type state = int
type verdict = Enabled | Violated | Open

type t
(** A compiled table.  Immutable; shared freely across actors and
    instances evaluating the same guard. *)

(** {1 Compilation} *)

val compile : ?max_states:int -> Guard.t -> t option
(** Build the table by exhaustive residuation from the guard.  [None]
    when the state space exceeds [max_states] (default 1024) or the
    alphabet is unreasonably wide — callers then stay symbolic. *)

val lookup : Guard.t -> t option
(** Memoized [compile], keyed on the interned {!Guard.uid}; fleets of
    instances sharing a guard pay compilation once, and a guard past
    the bound is remembered as [None].  The memo is dropped by
    {!Intern.clear_memos}. *)

(** {1 Inspection} *)

val initial : t -> state
val num_states : t -> int
val num_symbols : t -> int
val alphabet : t -> Symbol.t list
val mem_symbol : t -> Symbol.t -> bool

val guard_of : t -> state -> Guard.t
(** The residual guard a state denotes ([guard_of t (initial t)] is the
    compiled guard itself). *)

val verdict : t -> state -> verdict

val is_forced : t -> state -> bool
(** Some literal is required: occurrence of its complement moves the
    state to [Violated] (advisory, mirrors the trace vocabulary). *)

(** {1 Stepping} *)

val step_occurred : t -> state -> Literal.t -> state
(** Assimilate an occurrence announcement [□x].  Symbols outside the
    table's alphabet are a no-op, like the symbolic engine. *)

val step_promised : t -> state -> Literal.t -> state
(** Assimilate a promise [◇x]. *)

val occ_input : t -> Symbol.t -> Literal.polarity -> int option
(** Resolve an occurrence announcement to its input column, or [None]
    when the symbol is outside the table's alphabet.  Fleets of
    instances sharing one table resolve each (symbol, polarity) once
    and then step every instance with {!step_input} — one array read,
    no per-step hash lookup. *)

val step_input : t -> state -> int -> state
(** Step by a pre-resolved input column (see {!occ_input}).  The column
    must come from the same table. *)

val of_knowledge : t -> Knowledge.t -> state
(** Replay a knowledge onto the table: occurrences in seqno order (the
    symbolic assimilation order — pending terms are order-sensitive),
    then outstanding promises. *)

val status_hint : Guard.t -> Knowledge.t -> Knowledge.status option
(** [Some True]/[Some False] when the compiled table decides the guard
    under this knowledge; [None] when no table is available or the
    state is [Open].  The caller falls back to {!Knowledge.status}. *)

(** {1 Observability} *)

val stats : unit -> (string * int) list
(** [compiled_guards], [compiled_states], [uncompilable]. *)

val fingerprint : t -> int
(** Canonical fingerprint of alphabet, transitions, and verdict
    bitsets, for pinned regression tests. *)
