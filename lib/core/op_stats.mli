(** Operation counters threaded through the algebra.

    The paper argues about *amount of computation* (number of join
    operations avoided, candidates never generated).  These counters make
    that argument measurable independently of wall-clock noise; the bench
    harness reports both. *)

type t = {
  mutable fragment_joins : int;  (** f1 ⋈ f2 computations *)
  mutable candidates : int;  (** fragments produced before dedup *)
  mutable duplicates : int;  (** candidates that were already present *)
  mutable pruned : int;  (** fragments discarded by a pushed-down filter *)
  mutable filtered : int;  (** fragments discarded by the final selection *)
  mutable fixpoint_rounds : int;  (** pairwise-join rounds executed *)
  mutable reduce_subset_checks : int;  (** subset tests inside ⊖ *)
  mutable cache_hits : int;  (** joins answered from the memo table *)
  mutable cache_misses : int;  (** joins computed on a cache miss *)
  mutable cache_evictions : int;  (** memo entries displaced by LRU *)
  mutable cache_rejected : int;
      (** missed joins not stored because their partition was evicted
          mid-join (shared synchronized cache only) *)
}

val create : unit -> t

val reset : t -> unit

val merge : t -> t -> unit
(** [merge dst src] adds every counter of [src] into [dst].  Used to
    fold per-document and per-shard counters into a corpus run's
    total. *)

val to_assoc : t -> (string * int) list
(** Stable snapshot [(name, value)] in declaration order — the bridge
    into a {!Xfrag_obs.Metrics} registry and the JSON exporters. *)

val total_work : t -> int
(** A single scalar proxy for the paper's "amount of computation":
    joins + subset checks — the two operations §4/§5 count when
    comparing strategies.  [candidates] is deliberately excluded: every
    candidate is the output of exactly one counted fragment join, so
    adding it would double-count the same work; [duplicates], [pruned]
    and [filtered] are likewise classifications of already-counted
    outputs, not additional computation.  Cache counters are excluded
    too: a hit is an O(1) table probe standing in for a join the engine
    did {e not} perform — with a {!Join_cache} attached,
    [cache_hits + fragment_joins] is comparable to an uncached run's
    [fragment_joins]. *)

val pp : Format.formatter -> t -> unit
(** One line of [k=v] pairs; the cache counters are appended only when
    at least one of them is non-zero, so uncached runs print exactly as
    they did before the join cache existed. *)
