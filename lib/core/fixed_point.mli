(** Fixed points of fragment sets (Definition 9).

    F⁺ = \{ ⋈F' | F' ⊆ F, F' ≠ ∅ \} — every fragment obtainable by
    joining any non-empty subset of F.  Because pairwise join is
    monotonic and absorption holds, F⁺ equals ⋈ₙ(F), the n-fold pairwise
    self-join, and Theorem 1 shows k = |⊖(F)| rounds suffice.

    {b Erratum (reproduction finding).}  Theorem 1 as stated is {e false}
    for general fragment sets: with
    F = \{⟨n0,n4⟩, ⟨n0,n2,n3⟩, ⟨n0,n1,n2,n3,n4⟩\} under a root with four
    children, ⊖(F) is a singleton (k = 1, so "zero rounds"), yet
    ⟨n0,n4⟩ ⋈ ⟨n0,n2,n3⟩ = ⟨n0,n2,n3,n4⟩ is a new fragment
    (see test_fixed_point.ml).  The theorem {e does} hold empirically for
    sets of single-node fragments — the only inputs the paper's query
    evaluation ever feeds it (keyword-selected node sets, §2.3) — with no
    counterexample in 65 000 random singleton-seed instances.

    Computation strategies, all returning the same set:
    - {!naive}: iterate [G ← G ⋈ F] with a fixed-point check after every
      round (§3.1.1);
    - {!semi_naive}: join only each round's discoveries with F;
    - {!with_reduction}: fast-forward k−1 = |⊖(F)|−1 unchecked rounds
      (§3.1.2), then verify convergence — sound for every input; with
      [~checked:false] it is the paper's exact Theorem 1 recipe, exactly
      k−1 rounds and no check, for single-node seeds only.

    Each takes an optional anti-monotonic [keep]: the seed is [filter
    keep F] and every join result failing [keep] is discarded as it is
    produced (Theorem 3 push-down inside the fixed point), so that
    [σ_keep F⁺] is what comes out.

    Every strategy accepts an optional [?deadline] ({!Deadline.t},
    default {!Deadline.none}): checked at the top of every round and
    once per row inside the round's pairwise join, so a runaway fixed
    point aborts with {!Deadline.Expired} between whole joins. *)

val naive :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  ?keep:(Fragment.t -> bool) ->
  Context.t ->
  Frag_set.t ->
  Frag_set.t
(** Traced as [fixed-point], or [fixed-point:pruned] with [keep]. *)

val semi_naive :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  ?keep:(Fragment.t -> bool) ->
  Context.t ->
  Frag_set.t ->
  Frag_set.t
(** Delta iteration (the classic datalog optimization; the paper's
    "algorithms to implement all the operations" future work): each round
    joins only the fragments *discovered in the previous round* against
    the seed, instead of the whole accumulated set.  Correct because
    join results involving two old fragments were already produced in an
    earlier round.  Performs strictly fewer joins than {!naive} after the
    first round; answers are identical (property-tested). *)

val with_reduction :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  ?keep:(Fragment.t -> bool) ->
  ?reduced:Frag_set.t ->
  ?checked:bool ->
  Context.t ->
  Frag_set.t ->
  Frag_set.t
(** |⊖(σ_keep F)|−1 rounds, then (unless [~checked:false]) rounds until
    nothing changes.  Unchecked, it is correct when every member of the
    input is a single-node fragment and [keep] is anti-monotonic (σ_keep
    of the answer is then reached within that round count — see the
    induction in DESIGN.md); on general inputs it may under-compute —
    see the erratum above.  [reduced], when given, must be ⊖ of the
    seed computed against the same context; it skips the internal
    reduce, so a caller that already reduced the seed (the Auto probe in
    {!Optimizer}) does not pay for it twice. *)

val iterate :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  Context.t ->
  int ->
  Frag_set.t ->
  Frag_set.t
(** [iterate ctx n f] is ⋈ₙ(F): the pairwise self-join applied to [n]
    copies of [F] (so [iterate ctx 1 f = f]).
    @raise Invalid_argument if [n < 1]. *)
