(** Query evaluation strategies (§4).

    All strategies compute the same answer set
    σ_P(F1 ⋈* F2 ⋈* … ⋈* Fm); they differ in how much work they do:

    - {!Brute_force} (§4.1): literal powerset join of the keyword node
      sets, then one final selection.  Exponential; refuses keyword sets
      larger than the powerset guard.
    - {!Naive_fixpoint} (§3.1.1): Theorem 2 with the dynamic-programming
      fixed point (convergence checked each round).
    - {!Set_reduction} (§4.2): Theorem 2 with Theorem 1's pre-computed
      round count |⊖(F)|.
    - {!Pushdown} (§4.3): additionally pushes the anti-monotonic part of
      the filter below every join, inside fixed-point rounds included
      (Theorem 3).  The non-anti-monotonic residual is applied in a final
      selection, so answers are unchanged.
    - {!Pushdown_reduction}: the full §4.3 pipeline — Theorem 3 pruning
      combined with Theorem 1's pre-computed round count on the pruned
      seeds (valid: pruned keyword seeds are still single-node sets).
    - {!Semi_naive}: Theorem 3 pruning with delta-iterated fixed points —
      each round joins only the previous round's discoveries against the
      seed (see {!Fixed_point.semi_naive}).
    - {!Auto}: the {!Optimizer}'s choice.

    Each strategy is a fixed {!Plan.t} shape ({!Optimizer.plan_of}) run
    by the one interpreter {!Plan.run}.  When [strict_leaf] is set,
    answers are additionally filtered by Definition 8's leaf-occurrence
    requirement (see {!Query}). *)

type strategy = Exec.strategy =
  | Brute_force
  | Naive_fixpoint
  | Set_reduction
  | Pushdown
  | Pushdown_reduction
  | Semi_naive
  | Auto
(** Re-export of {!Exec.strategy} — the type lives with the request
    API; this equation keeps [Eval.Auto]-style code compiling. *)

type outcome = {
  answers : Frag_set.t;
  stats : Op_stats.t;
  strategy_used : strategy;  (** [Auto] resolved to a concrete strategy *)
  keyword_node_counts : (string * int) list;
      (** posting-list size per query keyword *)
  elapsed_ns : int;  (** wall-clock time of the whole evaluation *)
  phase_ns : (string * int) list;
      (** coarse wall-clock breakdown, in execution order: [scan]
          (posting-list lookups and the strategy choice) and [evaluate]
          (running the plan).  Measured with a handful of clock reads, so
          it is present whether or not tracing is enabled. *)
}

val strategy_name : strategy -> string

val strategy_of_string : string -> (strategy, string) result
(** Recognizes [brute-force], [naive], [set-reduction], [pushdown],
    [pushdown-reduction], [semi-naive], [auto]. *)

val all_strategies : strategy list
(** The six concrete strategies (without [Auto]). *)

val exec : ?clock:Xfrag_obs.Clock.t -> Context.t -> Exec.Request.t -> outcome
(** Evaluate an {!Exec.Request.t} — the primary entry point; the CLI,
    the HTTP endpoints, and the sharded corpus engine all build one
    request value and land here.  It scans the keywords, lets
    {!Optimizer.decide} build the plan, and runs it with {!Plan.run}.
    A keyword with an empty posting list makes the answer empty
    (conjunctive semantics) without any join.  The request's
    [limit] is presentation-side and is {e not} applied here: [answers]
    is always the full set (the corpus engine and the endpoints
    truncate).

    [request.cache], when set, memoizes fragment joins across the whole
    evaluation (and across evaluations sharing the cache) — see
    {!Join_cache}.  Answers are unchanged; [stats] gains
    [cache_hits]/[cache_misses]/[cache_evictions] and [fragment_joins]
    counts only the joins actually computed.

    With an enabled [request.trace] (default
    {!Xfrag_obs.Trace.disabled}, which costs nothing), the evaluation is
    recorded as a span tree rooted at [query] — see {!Xfrag_obs.Export}.
    [clock] only affects the [elapsed_ns] / [phase_ns] measurements
    (injectable for deterministic tests).  [request.deadline] bounds the
    evaluation in wall-clock: every strategy's inner loops check it
    between whole fragment joins and abort with {!Deadline.Expired} once
    it passes — a shared cache is never left mid-update (see
    {!Deadline}).
    @raise Deadline.Expired once [request.deadline] passes.
    @raise Invalid_argument if the request has no usable keyword, or if
    [Brute_force] is asked to enumerate a keyword set above the
    exponential-enumeration guard. *)

val answers :
  ?strategy:strategy ->
  ?strict_leaf_semantics:bool ->
  ?cache:Join_cache.t ->
  ?deadline:Deadline.t ->
  Context.t ->
  Query.t ->
  Frag_set.t
(** [(exec ctx request).answers] for a request built from [q] and the
    optional arguments; a shorthand for tests and examples. *)
