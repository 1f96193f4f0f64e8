(** Powerset fragment join ⋈* (Definition 6).

    F1 ⋈* F2 = \{ ⋈(F1' ∪ F2') | F1' ⊆ F1, F2' ⊆ F2, both non-empty \}.

    {!literal} enumerates subsets exactly as the definition reads —
    exponential, usable only on small inputs, and kept as the oracle the
    optimized paths are tested against.  Theorem 2's
    F1 ⋈* F2 = F1⁺ ⋈ F2⁺ is a plan rewrite ({!Rewrite.power_to_fixpoint}).

    All operations accept [?deadline] ({!Deadline.t}): the exponential
    enumeration checks it between every two subset joins, so even a
    worst-case ⋈* aborts with {!Deadline.Expired} within microseconds of
    the instant passing. *)

val literal :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  ?max_set_size:int ->
  Context.t ->
  Frag_set.t ->
  Frag_set.t ->
  Frag_set.t
(** Direct subset enumeration, 2^|F1|·2^|F2| joins.  Refuses inputs
    larger than [max_set_size] (default 14) per operand.
    @raise Invalid_argument when an operand is too large. *)

val many_literal :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  ?max_set_size:int ->
  Context.t ->
  Frag_set.t list ->
  Frag_set.t
(** m-ary extension: \{ ⋈(∪ᵢ Fi') | Fi' ⊆ Fi non-empty \} — the paper's
    query formula for m keywords.
    @raise Invalid_argument on the empty list or oversized operands. *)
