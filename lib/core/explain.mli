(** EXPLAIN ANALYZE: run the plan [Eval.exec] would run for the same
    request — the same {!Optimizer.decide} and the same {!Plan.run} —
    and annotate every operator with what actually happened: wall time,
    input and output cardinalities, and the {!Op_stats} deltas
    attributable to it.  The only difference from [Eval.exec] is the
    per-operator clock and counter windows, so the answers are
    [Eval.exec]'s and the counter deltas, probe included, sum to its
    [stats] (property-tested).

    The {!Cost} estimate is printed next to the measured per-operator
    reality, so a misestimate is visible at a glance.  Timings use an
    injectable {!Xfrag_obs.Clock.t}; pass {!Xfrag_obs.Clock.counter} to
    make the rendering deterministic (snapshot tests). *)

type node = {
  op : string;  (** rendered operator ({!Plan.label}) *)
  rows : int;  (** output cardinality *)
  in_rows : int list;  (** input cardinalities, one per child *)
  self_ns : int;  (** wall time of this operator, children excluded *)
  counters : (string * int) list;
      (** non-zero {!Op_stats} deltas recorded while this operator ran
          (children excluded) *)
  children : node list;
}

type report = {
  query : Query.t;
  strategy : Exec.strategy;  (** the strategy that ran, [Auto] resolved *)
  plan : Plan.t;  (** the plan that ran *)
  estimated_cost : float;  (** the {!Cost} estimate of [plan] *)
  probe : node option;
      (** the optimizer's ⊖ probe, when [Auto] ran one: its joins and
          subset checks happen before the plan starts *)
  root : node;
  answers : Frag_set.t;
  total_ns : int;  (** inclusive wall time of the probe and the plan *)
}

val analyze_request : ?clock:Xfrag_obs.Clock.t -> Context.t -> Exec.Request.t -> report
(** Profile the request's evaluation — the entry point of
    [POST /explain] and [xfrag query --explain-analyze].  Honors the
    request's strategy, strict-leaf flag, cache and deadline; [limit]
    is a presentation concern and [trace] is not recorded.
    @raise Deadline.Expired once the request deadline passes.
    @raise Invalid_argument when no keyword survives normalization, or
    [Brute_force] meets a keyword set above the enumeration guard. *)

val total_ns : node -> int
(** Inclusive time: [self_ns] plus all descendants. *)

val pp_node : Format.formatter -> node -> unit

val pp : Format.formatter -> report -> unit
(** The full report: query, strategy, plan, estimated cost, measured
    total, and the indented per-operator tree after the probe line. *)
