module type KEY = sig
  type t

  val equal : t -> t -> bool

  val hash : t -> int
end

module Make (K : KEY) = struct
  module H = Hashtbl.Make (K)

  (* Intrusive doubly-linked recency list; [head] is most recent, [tail]
     least recent.  Options keep the code total at the cost of one word
     per link — fine at cache sizes. *)
  type 'v node = {
    key : K.t;
    mutable value : 'v;
    mutable prev : 'v node option;  (* towards head *)
    mutable next : 'v node option;  (* towards tail *)
  }

  type 'v t = {
    capacity : int;
    table : 'v node H.t;
    mutable head : 'v node option;
    mutable tail : 'v node option;
    mutable evictions : int;
  }

  let create ~capacity () =
    {
      capacity;
      table = H.create (min 1024 (max 16 capacity));
      head = None;
      tail = None;
      evictions = 0;
    }

  let length t = H.length t.table

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.prev <- None;
    n.next <- t.head;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let touch t n =
    match n.prev with
    | None -> () (* already most recent *)
    | Some _ ->
        unlink t n;
        push_front t n

  let find t k =
    match H.find_opt t.table k with
    | Some n ->
        touch t n;
        Some n.value
    | None -> None

  let evict_lru t =
    match t.tail with
    | None -> ()
    | Some n ->
        unlink t n;
        H.remove t.table n.key;
        t.evictions <- t.evictions + 1

  let add t k v =
    if t.capacity > 0 then
      match H.find_opt t.table k with
      | Some n ->
          n.value <- v;
          touch t n
      | None ->
          if H.length t.table >= t.capacity then evict_lru t;
          let n = { key = k; value = v; prev = None; next = None } in
          H.replace t.table k n;
          push_front t n

  let evictions t = t.evictions
end
