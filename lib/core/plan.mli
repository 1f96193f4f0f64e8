(** The query-plan IR (the evaluation trees of Figure 5) and its one
    interpreter.

    Every way this library evaluates a query is a value of {!t}: the
    paper's formula σ_P(F1 ⋈* F2 ⋈* … ⋈* Fm) ({!initial}), the fixed
    shape of each §4 strategy (derived from it by the {!Rewrite} rules,
    see {!Optimizer.plan_of}), and the plans EXPLAIN ANALYZE profiles.
    {!run} is the only executor: [Eval.exec] and
    [Explain.analyze_request] both call it on the plan
    {!Optimizer.decide} builds. *)

type rounds =
  | Until_stable
      (** join the whole accumulator with the seed each round and stop
          when a round adds nothing (§3.1.1) *)
  | Theorem1
      (** |⊖(seed)|−1 rounds and no convergence check (§3.1.2) when the
          seed is a keyword scan; over any other seed the check runs
          after them (see the erratum in {!Fixed_point}) *)
  | Delta
      (** semi-naive: each round joins only the previous round's
          discoveries with the seed *)

type t =
  | Scan_keyword of string  (** F(k) = σ_{keyword=k}(nodes D) *)
  | Select of Filter.t * t  (** σ_P *)
  | Join of { prune : Filter.t; left : t; right : t }
      (** ⋈, dropping each result that fails the anti-monotonic [prune]
          as it is produced ([Filter.True]: no pruning) *)
  | Power_join of t list
      (** the literal m-ary ⋈* (Definition 6), by subset enumeration;
          over one operand it is F⁺ (Definition 9) *)
  | Fixed_point of { prune : Filter.t; rounds : rounds; seed : t }
      (** F⁺ of σ_prune(seed), every join pruned by the anti-monotonic
          [prune] (Theorem 3; [Filter.True]: no pruning) *)
  | Strict_leaf of t
      (** Definition 8's leaf requirement: keep the fragments whose
          leaves contain every keyword scanned below *)

val initial : Query.t -> t
(** σ_P(F1 ⋈* … ⋈* Fm) as one m-ary [Power_join]; σ_P(F1⁺) for one
    keyword. *)

val map_inputs : (t -> t) -> t -> t
(** Rebuild a node with [f] applied to each of its direct inputs — the
    traversal the {!Rewrite} rules share. *)

val run :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  ?scans:(string * Frag_set.t) list ->
  ?reduced:(string * Frag_set.t) list ->
  ?observe:(t -> Frag_set.t list -> (unit -> Frag_set.t) -> Frag_set.t) ->
  Context.t ->
  t ->
  Frag_set.t
(** Execute a plan, inputs before the node that consumes them.

    [scans] holds keyword sets the caller already looked up with
    {!Selection.keyword} (a keyword it lacks is looked up on demand).
    [reduced] holds ⊖(F(k)) per keyword, computed by the optimizer's
    probe: an unpruned [Theorem1] fixed point over [Scan_keyword k]
    reuses it instead of reducing again.  [observe node inputs apply]
    is called once per node with the node's evaluated inputs and must
    return [apply ()]; EXPLAIN ANALYZE passes one that times the
    operator and takes its {!Op_stats} deltas.  Every join charges
    [stats], goes through [cache], checks [deadline] between whole
    joins and records spans in [trace].
    @raise Deadline.Expired once [deadline] passes.
    @raise Invalid_argument when a [Power_join] operand is above the
    exponential-enumeration guard. *)

val operator_count : t -> int
(** Number of operator nodes in the plan tree. *)

val label : t -> string
(** The operator alone, as the tree renderings print it, e.g.
    ["fixed-point [delta] [prune size<=3]"]. *)

val pp : Format.formatter -> t -> unit
(** One-line algebraic rendering, e.g.
    [σ_{size<=3}((F(optimization)⁺ ⋈ F(xquery)⁺))]. *)

val pp_tree : Format.formatter -> t -> unit
(** Multi-line indented rendering of the evaluation tree (Figure 5
    style), one {!label} per line. *)
