(** The one optimizer: resolves {!Exec.Auto} by §5's rule and builds the
    {!Plan.t} a request runs.

    Every concrete strategy is a fixed plan shape, derived from
    {!Plan.initial} by the {!Rewrite} rules ({!plan_of}).  [Auto]
    chooses among them with the paper's reduction-factor gate, where RF
    is the share of a keyword set the set-reduce ⊖ removes:

    - a filter with an anti-monotonic conjunct: semi-naive (Theorem 3
      pruning with delta iteration; measured in E1/A1 to beat every
      alternative, since under pruning the fixed point converges before
      Theorem 1's |⊖| rounds);
    - otherwise, when every keyword set has at most {!rf_probe_limit}
      nodes, probe ⊖ on each: set-reduction when some RF reaches
      {!rf_threshold} (its fixed points reuse the probed reductions, so
      they are charged once), else semi-naive;
    - otherwise semi-naive.

    A keyword with no postings empties the answer (conjunctive
    semantics); it is checked before the gate, so such a query probes
    nothing and its plan is that keyword's empty scan. *)

val rf_threshold : float
(** Minimum reduction factor for set reduction to pay (the paper's [v],
    §5). *)

val rf_probe_limit : int
(** Largest keyword set the gate probes: ⊖ costs O(|F|²) joins and
    O(|F|³) subset checks. *)

val plan_of : Exec.strategy -> Query.t -> Plan.t
(** The plan shape of a concrete strategy.
    @raise Invalid_argument on [Auto]. *)

type decision = {
  strategy : Exec.strategy;  (** concrete: [Auto] resolved *)
  plan : Plan.t;  (** the strategy's shape, under [Strict_leaf] on request *)
  reduced : (string * Frag_set.t) list;
      (** ⊖(F(k)) per keyword when the gate probed, else [[]] — pass it
          to {!Plan.run} *)
  cache : Join_cache.t option;
      (** the request's cache, when memoization pays for [strategy]
          ({!Join_cache.pays}) *)
}

val decide :
  ?stats:Op_stats.t ->
  ?trace:Xfrag_obs.Trace.t ->
  Context.t ->
  Exec.Request.t ->
  Query.t ->
  (string * Frag_set.t) list ->
  decision
(** [decide ctx r q scans]: [q] is [Exec.Request.to_query r] and [scans]
    its keyword sets in query order.  The probe's joins and subset
    checks are charged to [stats]; for [Auto] the choice is traced as a
    [choose-strategy] span. *)

val explain : Context.t -> Query.t -> string
(** Human-readable report for [xfrag explain]: the initial plan, the
    probe's reduction factors, the plan [Auto] runs with its {!Cost}
    estimate, and its evaluation tree. *)
