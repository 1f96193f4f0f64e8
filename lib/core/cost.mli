(** A coarse analytical cost model for plans (§5 asks for one as future
    work; this is a deliberately simple instance).

    Costs are abstract units proportional to the number of fragment-join
    operations a plan would perform, driven by estimated operand
    cardinalities:

    - a scan costs its posting-list length;
    - a pairwise join of estimated sizes a and b costs a·b and yields up
      to a·b fragments;
    - a fixed point over a (pruned) seed of estimated size n yields up
      to n² fragments and costs about n rounds of joins against the
      seed, fewer under Theorem 1's round count, one join per fragment
      under delta iteration;
    - a selection costs its input size; its output is input size times a
      per-filter selectivity estimate;
    - every cardinality is capped at [set_growth_cap].

    The estimate is printed beside a plan (EXPLAIN, [xfrag explain]) so
    a misestimate shows next to the measured counters; it does not
    choose plans — {!Optimizer} decides by §5's rule. *)

type estimate = { cost : float; cardinality : float }

val selectivity : Filter.t -> float
(** Heuristic fraction of fragments that survive the filter. *)

val estimate : Context.t -> Plan.t -> estimate

val cost : Context.t -> Plan.t -> float

val set_growth_cap : float
(** Cap on the estimated cardinality of any intermediate fragment set. *)
