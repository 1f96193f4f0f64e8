(** Bounded LRU memo tables.

    A cache maps keys to values, holds at most [capacity] live entries,
    and evicts the least-recently-used entry on overflow.  Every lookup
    and insertion is amortized O(1): a hash table indexes an intrusive
    doubly-linked recency list.

    The only counter is the lifetime {!evictions} count; hits, misses
    and the world a table's entries belong to are the caller's to track
    (the join cache keeps them per partition and in [Op_stats]).

    Capacity 0 (or negative) is a legal degenerate cache: every lookup
    misses, insertions are dropped, nothing is ever stored.  This gives
    callers a uniform "cache disabled" object instead of an option type
    in every hot-path signature.

    Not domain-safe: share a cache between domains only under external
    synchronization (the join cache holds a stripe lock around every
    call). *)

module type KEY = sig
  type t

  val equal : t -> t -> bool

  val hash : t -> int
end

module Make (K : KEY) : sig
  type 'v t

  val create : capacity:int -> unit -> 'v t
  (** [capacity <= 0] creates a disabled cache (see above). *)

  val length : 'v t -> int
  (** Live entries, [0 <= length <= max 0 capacity]. *)

  val find : 'v t -> K.t -> 'v option
  (** Lookup; on a hit the entry becomes most-recently-used. *)

  val add : 'v t -> K.t -> 'v -> unit
  (** Insert as most-recently-used, evicting the least-recently-used
      entry if the cache is full.  Re-adding an existing key replaces its
      value and refreshes its recency without eviction. *)

  val evictions : 'v t -> int
  (** Entries displaced by {!add} over the cache's lifetime. *)
end
