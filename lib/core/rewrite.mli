(** Algebraic plan rewrites (§3).

    Each rule returns an equivalent plan — tests execute both sides on
    random documents and compare answer sets.  {!Optimizer.plan_of}
    composes them into the plan shape of every §4 strategy.

    - {!power_to_fixpoint}: Theorem 2, F1 ⋈* F2 ⇒ F1⁺ ⋈ F2⁺;
    - {!use_reduction}: Theorem 1, compute fixed points with the
      pre-computed |⊖(F)| round count;
    - {!use_delta}: semi-naive fixed points, joining each round's
      discoveries only;
    - {!push_selection}: Theorem 3, push the anti-monotonic part of every
      selection below joins and into fixed-point rounds, keeping the
      residual on top. *)

val power_to_fixpoint : Plan.t -> Plan.t

val use_reduction : Plan.t -> Plan.t

val use_delta : Plan.t -> Plan.t

val push_selection : Plan.t -> Plan.t
