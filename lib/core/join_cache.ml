(* Keys are unordered pairs of interned fragment ids.  The mix keeps
   (a, b) collisions structured like a random function rather than the
   near-diagonal patterns dense sequential ids would otherwise produce
   in a power-of-two table. *)
module Pair_key = struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2

  let hash (a, b) = (a * 0x9e3779b1) lxor (b * 0x85ebca77)
end

module Lru = Xfrag_cache.Lru.Make (Pair_key)

(* One partition per context generation: a document's entries and
   interned ids live and die together, so a request against doc B can
   never invalidate doc A's warm entries — the failure mode of the old
   single-generation design, where a shared cache serving alternating
   documents thrashed to zero hits.  A partition evicted by the
   [max_docs] bound takes its interner with it, which both bounds memory
   and keeps stale hits impossible by construction (an id is only ever
   interpreted inside the partition that allocated it). *)
type partition = {
  part_gen : int;
  lru : Fragment.t Lru.t;
  interner : Fragment.Interner.t;
}

type stripe = {
  lock : Mutex.t option;
  mutable parts : partition list;  (* MRU first; length <= max_docs *)
}

type t = {
  stripes : stripe array;
  capacity : int;
  part_capacity : int;
  max_docs : int;
  (* Lifetime counters are [Atomic] so the metrics/scratch paths can
     read them without the stripe locks (and without tearing). *)
  c_hits : int Atomic.t;
  c_misses : int Atomic.t;
  c_evictions : int Atomic.t;
  c_invalidations : int Atomic.t;
  c_rejected : int Atomic.t;
}

let default_capacity = 1 lsl 16

let default_max_docs = 4

let create ?(synchronized = false) ?(capacity = default_capacity)
    ?(stripes = 8) ?(max_docs = default_max_docs) () =
  (* An unsynchronized cache is single-domain by contract, so striping
     buys nothing; force one stripe and skip the mutexes entirely. *)
  let nstripes = if synchronized then max 1 stripes else 1 in
  let part_capacity = if capacity <= 0 then 0 else max 1 (capacity / nstripes) in
  {
    stripes =
      Array.init nstripes (fun _ ->
          {
            lock = (if synchronized then Some (Mutex.create ()) else None);
            parts = [];
          });
    capacity;
    part_capacity;
    max_docs = max 1 max_docs;
    c_hits = Atomic.make 0;
    c_misses = Atomic.make 0;
    c_evictions = Atomic.make 0;
    c_invalidations = Atomic.make 0;
    c_rejected = Atomic.make 0;
  }

let synchronized t = t.stripes.(0).lock <> None

let stripes t = Array.length t.stripes

(* Does attaching the cache pay for a strategy of this shape?  On
   pruned strategies (pushdown family) operands stay small — bounded by
   the anti-monotone filter — so probing is cheap and hits erase whole
   joins: measured 3-4x wins.  On unpruned strategies the operands are
   the huge intermediate fragments themselves; hashing one to probe
   costs as much as joining it, so even a 20% hit rate loses 2-4x. *)
let pays t ~pruned = t.capacity > 0 && pruned

let hits t = Atomic.get t.c_hits

let misses t = Atomic.get t.c_misses

let evictions t = Atomic.get t.c_evictions

let invalidations t = Atomic.get t.c_invalidations

let rejected t = Atomic.get t.c_rejected

let with_stripe stripe f =
  match stripe.lock with
  | None -> f ()
  | Some m ->
      Mutex.lock m;
      Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let length t =
  Array.fold_left
    (fun acc stripe ->
      acc
      + with_stripe stripe (fun () ->
            List.fold_left (fun a p -> a + Lru.length p.lru) 0 stripe.parts))
    0 t.stripes

let interned t =
  Array.fold_left
    (fun acc stripe ->
      acc
      + with_stripe stripe (fun () ->
            List.fold_left
              (fun a p -> a + Fragment.Interner.size p.interner)
              0 stripe.parts))
    0 t.stripes

let partitions t =
  Array.fold_left
    (fun acc stripe ->
      acc + with_stripe stripe (fun () -> List.length stripe.parts))
    0 t.stripes

(* Retiring one generation is the document-mutation hook: replacing or
   deleting a document invalidates exactly its partition (its interner
   dies with it, so a stale hit is impossible), and every other resident
   document stays warm — the whole point of per-generation partitions. *)
let retire t ~generation =
  Array.iter
    (fun stripe ->
      with_stripe stripe (fun () ->
          let dead, live =
            List.partition (fun p -> p.part_gen = generation) stripe.parts
          in
          List.iter
            (fun p ->
              if Lru.length p.lru > 0 then Atomic.incr t.c_invalidations)
            dead;
          stripe.parts <- live))
    t.stripes

(* Both orders of the same unordered pair must land on the same stripe,
   and picking it must not hash the node arrays (that O(n) cost is
   exactly what sinks the cache on large operands) — so mix each
   operand's O(1) summary (root, size) and combine commutatively. *)
let stripe_of t f1 f2 =
  let n = Array.length t.stripes in
  if n = 1 then t.stripes.(0)
  else
    let mix f =
      (Fragment.root f * 0x9e3779b1) lxor (Fragment.size f * 0x85ebca77)
    in
    t.stripes.((mix f1 + mix f2) land max_int mod n)

(* Dropping the over-[max_docs] tail: each dropped partition that still
   held entries is one invalidation event (its document's memo state is
   gone, exactly like the old generation flip — but scoped to the least
   recently used document instead of the whole world). *)
let rec trim t n parts =
  match parts with
  | [] -> []
  | rest when n = 0 ->
      List.iter
        (fun p -> if Lru.length p.lru > 0 then Atomic.incr t.c_invalidations)
        rest;
      []
  | p :: rest -> p :: trim t (n - 1) rest

(* Call with the stripe lock held (or unsynchronized). *)
let partition_of t stripe gen =
  match stripe.parts with
  | p :: _ when p.part_gen = gen -> p
  | parts -> (
      match List.find_opt (fun p -> p.part_gen = gen) parts with
      | Some p ->
          stripe.parts <- p :: List.filter (fun q -> q != p) parts;
          p
      | None ->
          let p =
            {
              part_gen = gen;
              lru = Lru.create ~capacity:t.part_capacity ();
              interner = Fragment.Interner.create ();
            }
          in
          stripe.parts <- trim t t.max_docs (p :: parts);
          p)

(* Call with the stripe lock held (or unsynchronized). *)
let probe t stripe gen f1 f2 =
  let part = partition_of t stripe gen in
  let i1 = Fragment.Interner.intern part.interner f1 in
  let i2 = Fragment.Interner.intern part.interner f2 in
  let key = if i1 <= i2 then (i1, i2) else (i2, i1) in
  (part, key, Lru.find part.lru key)

let bump stats f = match stats with None -> () | Some s -> f s

(* Store under the stripe lock; returns the entries evicted. *)
let store part key result =
  let ev0 = Lru.evictions part.lru in
  Lru.add part.lru key result;
  (* Interning the result means a later join that uses it as an operand
     (every fixed-point round does) gets its id for one hashtable
     probe. *)
  ignore (Fragment.Interner.intern part.interner result);
  Lru.evictions part.lru - ev0

let charge_miss t ?stats ~stored ~evicted () =
  Atomic.incr t.c_misses;
  if evicted > 0 then ignore (Atomic.fetch_and_add t.c_evictions evicted);
  if not stored then Atomic.incr t.c_rejected;
  bump stats (fun s ->
      s.Op_stats.cache_misses <- s.Op_stats.cache_misses + 1;
      s.Op_stats.cache_evictions <- s.Op_stats.cache_evictions + evicted;
      if not stored then
        s.Op_stats.cache_rejected <- s.Op_stats.cache_rejected + 1)

let charge_hit t ?stats () =
  Atomic.incr t.c_hits;
  bump stats (fun s -> s.Op_stats.cache_hits <- s.Op_stats.cache_hits + 1)

let find_or_join_unlocked t stripe ?stats gen f1 f2 ~join =
  let part, key, cached = probe t stripe gen f1 f2 in
  match cached with
  | Some result ->
      charge_hit t ?stats ();
      result
  | None ->
      let result = join () in
      charge_miss t ?stats ~stored:true ~evicted:(store part key result) ();
      result

(* Synchronized path: lookup and store are separate critical sections so
   the join itself — the expensive part, and the only part that can
   raise (e.g. [Deadline.Expired]) — runs outside the lock.  Two workers
   missing on the same key may both compute the join; both results are
   identical ([Join.fragment] is pure), so the second [Lru.add] merely
   refreshes the entry.  If the partition was evicted while we were
   joining, the interned key ids belong to a dead interner — the result
   is dropped instead of stored under a wrong key (physical membership
   is the validity token). *)
let find_or_join_locked t stripe m ?stats gen f1 f2 ~join =
  Mutex.lock m;
  let part, key, cached = probe t stripe gen f1 f2 in
  Mutex.unlock m;
  match cached with
  | Some result ->
      charge_hit t ?stats ();
      result
  | None ->
      let result = join () in
      Mutex.lock m;
      let stored = List.memq part stripe.parts in
      let evicted = if stored then store part key result else 0 in
      Mutex.unlock m;
      charge_miss t ?stats ~stored ~evicted ();
      result

let find_or_join t ?stats ctx f1 f2 ~join =
  if t.capacity <= 0 then join ()
  else
    let gen = ctx.Context.generation in
    let stripe = stripe_of t f1 f2 in
    match stripe.lock with
    | None -> find_or_join_unlocked t stripe ?stats gen f1 f2 ~join
    | Some m -> find_or_join_locked t stripe m ?stats gen f1 f2 ~join

let metrics_assoc t =
  [
    ("cache.hits", hits t);
    ("cache.misses", misses t);
    ("cache.evictions", evictions t);
    ("cache.invalidations", invalidations t);
    ("cache.rejected", rejected t);
    ("cache.entries", length t);
    ("cache.interned", interned t);
    ("cache.partitions", partitions t);
    ("cache.stripes", stripes t);
  ]
