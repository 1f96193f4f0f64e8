(** Memoization of fragment joins (⋈, Definition 4).

    Every fixed-point strategy re-derives [Join.fragment] for fragment
    pairs it has already joined — the naive fixed point re-joins the
    whole [acc × seed] product each round, reduce pre-computes all
    pairwise joins, and ⋈*-heavy plans repeat subset joins across
    operands.  A join cache makes that reuse explicit: bounded LRU
    tables from unordered pairs of interned fragment ids to the joined
    fragment (which embeds the LCA path the join depended on, so the
    path computation is amortized away with it).

    {b Keying.}  Fragments are first interned ({!Fragment.Interner}) to
    dense ids; the memo key is the unordered id pair, exploiting join
    commutativity ([f1 ⋈ f2 = f2 ⋈ f1]).  A lookup therefore hashes each
    operand once, and bucket collisions compare two ints instead of two
    node arrays.

    {b Per-document scoping.}  Cached results are only valid for the
    context whose node numbering produced them, identified by
    {!Context.generation}.  Each generation gets its own {e partition} —
    an LRU table plus the interner that allocated its ids — so serving a
    different document warms a different partition instead of
    invalidating everything (the old design dropped the whole table on
    any generation change, so a cache shared by two documents thrashed
    to zero hits).  At most [max_docs] partitions are retained per
    stripe; evicting the least recently used partition discards its
    interner with it, which bounds memory and makes a stale hit
    impossible by construction: an interned id is only ever interpreted
    inside the partition that allocated it.

    {b What is stored.}  Every missed join is stored.  Whether the
    cache is attached at all is decided per strategy ({!pays}): on
    unpruned strategies the operands are huge intermediate fragments,
    and hashing one to probe the table costs as much as joining it, so
    the evaluator detaches the cache there and keeps it on the pruned
    (pushdown-family) strategies, where measurements show it wins.

    {b Why answers are unchanged.}  [Join.fragment] is a pure function
    of the context and the two operands; the cache only ever returns a
    value previously computed by the same function for structurally
    equal operands under the same generation.  Strategy answer sets are
    therefore bit-identical with the cache on or off, at any capacity
    and stripe count (property-tested).

    {b Concurrency.}  By default not domain-safe: one domain at a time
    may use it.  A cache created with [~synchronized:true] is split into
    [stripes] mutex-guarded segments — an unordered pair always lands on
    one stripe (chosen from the operands' O(1) root/size summaries), so
    worker domains contend only when they touch the same segment.  Within a stripe the lookup
    and the store are separate short critical sections, and the join
    itself — the expensive part, and the only part that can raise —
    always runs outside the lock, so an aborted evaluation (deadline,
    exception) can never leave a table mid-update.  Two workers racing
    on the same miss both compute the (pure, identical) join; one store
    wins.  Lifetime counters are [Atomic], so metrics pages read them
    without touching the stripe locks.

    A cache with capacity 0 is a legal no-op (always misses, stores
    nothing) — useful to exercise the "disabled" configuration through
    the same code path. *)

type t

val default_capacity : int
(** 65536 entries, divided evenly across stripes. *)

val create :
  ?synchronized:bool -> ?capacity:int -> ?stripes:int -> ?max_docs:int -> unit -> t
(** A fresh, empty cache.  [capacity <= 0] gives the no-op cache.
    [synchronized] (default false) makes the cache safe to share across
    domains/threads; only then does [stripes] apply (default 8;
    unsynchronized caches always have one stripe and no mutex).
    [max_docs] (default 4) bounds the retained per-document partitions
    {e per stripe}; worst-case resident entries are
    [max_docs * capacity]. *)

val synchronized : t -> bool

val find_or_join :
  t ->
  ?stats:Op_stats.t ->
  Context.t ->
  Fragment.t ->
  Fragment.t ->
  join:(unit -> Fragment.t) ->
  Fragment.t
(** [find_or_join t ctx f1 f2 ~join] returns the memoized [f1 ⋈ f2] if
    present in [ctx]'s partition, else calls [join], stores its result,
    and returns it.  Bumps [stats.cache_hits] / [cache_misses] /
    [cache_evictions] / [cache_rejected] accordingly ([join] itself is
    expected to count the actual join work). *)

val pays : t -> pruned:bool -> bool
(** [capacity > 0 && pruned]: whether attaching the cache is expected to
    pay for a strategy; [pruned] says the strategy bounds its operands
    with an anti-monotone filter (pushdown family).  The evaluator
    consults this after strategy selection and detaches the cache from
    strategies where it would lose. *)

val stripes : t -> int

val length : t -> int
(** Live memo entries, summed across partitions and stripes. *)

val interned : t -> int
(** Distinct fragments interned across live partitions. *)

val partitions : t -> int
(** Live per-document partitions across all stripes. *)

val retire : t -> generation:int -> unit
(** Drop the one partition belonging to [generation] from every stripe
    (no-op if none is resident).  This is the document-mutation hook:
    replacing or deleting a document retires exactly that document's
    memo state — counted as an invalidation if it held entries — while
    every other resident document stays warm. *)

val hits : t -> int

val misses : t -> int

val evictions : t -> int
(** Entry-level LRU evictions within partitions. *)

val invalidations : t -> int
(** Non-empty per-document partitions dropped by the [max_docs] bound
    (each lost one document's memo state). *)

val rejected : t -> int
(** Missed joins left unstored because their partition was evicted
    while the join ran (synchronized caches only). *)

val metrics_assoc : t -> (string * int) list
(** Lifetime counters and gauges as [("cache.hits", …); …] — ready for
    [Xfrag_obs.Metrics.add_assoc]. *)
